// Package runner fans independent simulation runs out across CPU cores.
//
// Every figure of the reproduction is a set of fully independent
// simulations: each run builds its own network from its own seed (and
// hence its own forked RNG streams, event loop, and fading realizations),
// so runs share no mutable state and can execute on any goroutine. The
// runner exploits that with a work-stealing scheduler: the run indices are
// split into one contiguous chunk per worker, each worker pops from the
// front of its own chunk, and workers that drain their chunk steal from
// the back of the fullest remaining one. Results land in a slot per run
// index, so output order is deterministic and bit-identical to a serial
// execution regardless of which worker executed which run.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Exec is the execution half of a run configuration: how work is spread
// over goroutines, both across independent runs (Workers/Serial) and
// inside a single multi-segment simulation (ParallelSegments). The public
// wgtt.Options embeds it, so the fields surface unchanged on the facade.
type Exec struct {
	// Serial forces in-order execution on the calling goroutine — the
	// escape hatch for debugging and for environments where spawning
	// goroutines is undesirable. Results are identical either way.
	Serial bool
	// Workers is the number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// ParallelSegments runs each multi-segment network's segments as
	// conservative parallel domains (core.DomainsParallel). Callers
	// apply it to the Config they build; single-segment networks run as
	// one domain either way.
	ParallelSegments bool
}

// deque is a range [lo, hi) of run indices packed into one atomic word.
// The owning worker pops indices from lo; thieves steal from hi. Both
// sides move by CAS on the packed word, so pop and steal can race safely
// without locks.
type deque struct {
	_      [7]uint64 // pad to a cache line so workers don't false-share
	bounds atomic.Uint64
}

func pack(lo, hi uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }
func unpack(b uint64) (lo, hi uint32) {
	return uint32(b), uint32(b >> 32)
}

// pop takes the next index from the front of the deque.
func (d *deque) pop() (int, bool) {
	for {
		b := d.bounds.Load()
		lo, hi := unpack(b)
		if lo >= hi {
			return 0, false
		}
		if d.bounds.CompareAndSwap(b, pack(lo+1, hi)) {
			return int(lo), true
		}
	}
}

// steal takes one index from the back of the deque.
func (d *deque) steal() (int, bool) {
	for {
		b := d.bounds.Load()
		lo, hi := unpack(b)
		if lo >= hi {
			return 0, false
		}
		if d.bounds.CompareAndSwap(b, pack(lo, hi-1)) {
			return int(hi - 1), true
		}
	}
}

// size reports how many indices remain.
func (d *deque) size() uint32 {
	lo, hi := unpack(d.bounds.Load())
	if lo >= hi {
		return 0
	}
	return hi - lo
}

// Map runs fn over every item and returns the results in item order. Each
// fn invocation must be independent: it may not share mutable state with
// other invocations (the simulation guarantees this by building a fresh
// network per run). fn itself may be called from multiple goroutines, but
// never concurrently for the same index.
func Map[T, R any](ex Exec, items []T, fn func(i int, item T) R) []R {
	n := len(items)
	if n == 0 {
		return nil
	}
	workers := ex.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]R, n)
	if ex.Serial || workers == 1 || n == 1 {
		for i, it := range items {
			results[i] = fn(i, it)
		}
		return results
	}

	// Static partition of [0,n) into one contiguous chunk per worker.
	deques := make([]deque, workers)
	chunk := n / workers
	rem := n % workers
	lo := 0
	for w := range deques {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		deques[w].bounds.Store(pack(uint32(lo), uint32(hi)))
		lo = hi
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				i, ok := deques[self].pop()
				if !ok {
					// Own chunk drained: steal from the fullest victim.
					i, ok = stealFrom(deques, self)
					if !ok {
						return
					}
				}
				results[i] = fn(i, items[i])
			}
		}(w)
	}
	wg.Wait()
	return results
}

// stealFrom picks the victim with the most remaining work and steals one
// index from the back of its deque. Returns false only when every deque is
// empty.
func stealFrom(deques []deque, self int) (int, bool) {
	for {
		victim, best := -1, uint32(0)
		for v := range deques {
			if v == self {
				continue
			}
			if s := deques[v].size(); s > best {
				victim, best = v, s
			}
		}
		if victim < 0 {
			return 0, false
		}
		if i, ok := deques[victim].steal(); ok {
			return i, true
		}
		// Lost the race for the victim's last items; rescan.
	}
}
