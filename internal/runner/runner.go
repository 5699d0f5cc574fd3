// Package runner fans independent simulation runs out across CPU cores.
//
// Every figure of the reproduction is a set of fully independent
// simulations: each run builds its own network from its own seed (and
// hence its own forked RNG streams, event loop, and fading realizations),
// so runs share no mutable state and can execute on any goroutine. The
// runner's workers claim run indices from one shared counter, so a
// worker that finishes a short run takes the next index at once. Results
// land in a slot per run index, so output order is deterministic and
// bit-identical to a serial execution regardless of which worker
// executed which run.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Exec is the execution half of a run configuration: how many runs go
// at once (Workers), and whether a multi-segment simulation splits into
// per-segment domains (ParallelSegments). The public wgtt.Options embeds
// it, so the fields surface unchanged on the facade.
type Exec struct {
	// Workers is the number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0). One worker runs every item in order on the
	// calling goroutine. Results are identical at any count.
	Workers int
	// ParallelSegments runs each multi-segment network's segments as
	// per-segment domains synchronized conservatively at the trunks
	// (core.DomainsParallel). The domains run one after another on the
	// coordinator's goroutine, not in parallel; the name is the flag's.
	// Callers apply it to the Config they build; single-segment
	// networks run as one domain either way.
	ParallelSegments bool
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
	workers = min(workers, n)
	results := make([]R, n)
	if workers == 1 {
		for i, it := range items {
			results[i] = fn(i, it)
		}
		return results
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return results
}
