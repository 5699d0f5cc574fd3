package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// roundPool executes the parallel coordinator's rounds. A round runs only
// its active domains — those with an event due by the round's end; every
// other domain has nothing to execute, so the coordinator just advances
// its clock inline. The active domains are then claimed one at a time
// from a shared counter by the coordinator goroutine itself and by up to
// GOMAXPROCS−1 helper goroutines (never more than one fewer than the
// domains). The coordinator blocks only while a helper still holds a
// domain; a helper woken after the round's work is gone finds nothing
// to claim and parks again. With GOMAXPROCS=1 there are no helpers and
// the coordinator runs every round alone.
//
// Determinism does not depend on which goroutine runs which domain:
// domains share nothing within a round, and the coordinator drains the
// mailboxes after the round completes.
type roundPool struct {
	c *Coordinator
	// claim packs the published round's work counter as
	// epoch<<32 | n<<16 | next: n active domains, of which the first next
	// are claimed. A claimer advances next by compare-and-swap on the
	// whole word, so a claim can only succeed against the round currently
	// published, whose epoch no earlier round shares.
	claim atomic.Uint64
	epoch uint64
	// active (indices into c.domains) and end describe the published
	// round. The coordinator writes them before publishing claim and not
	// again until every active domain has finished, so a goroutine whose
	// claim succeeded may read them.
	active []int
	end    Time
	// left counts the round's active domains not yet finished. Whoever
	// brings it to zero finished the round; a helper that does so sends
	// the coordinator the round's one token on done.
	left atomic.Int32
	done chan struct{}
	// kick holds one capacity-1 wake-up channel per helper.
	kick []chan struct{}
	wg   sync.WaitGroup
}

// newRoundPool starts the helper goroutines for one Run call.
func (c *Coordinator) newRoundPool() *roundPool {
	if len(c.domains) > 0xffff {
		panic(fmt.Sprintf("sim: %d domains exceed the parallel coordinator's 65535", len(c.domains)))
	}
	p := &roundPool{c: c, done: make(chan struct{}, 1)}
	for i := 1; i < min(runtime.GOMAXPROCS(0), len(c.domains)); i++ {
		kick := make(chan struct{}, 1)
		p.kick = append(p.kick, kick)
		p.wg.Add(1)
		c.helpers.Add(1)
		go p.helper(kick)
	}
	return p
}

// close stops the helpers and waits until every one has exited.
func (p *roundPool) close() {
	for _, k := range p.kick {
		close(k)
	}
	p.wg.Wait()
}

func (p *roundPool) helper(kick chan struct{}) {
	defer p.wg.Done()
	defer p.c.helpers.Add(-1)
	for range kick {
		if p.work() {
			p.done <- struct{}{}
		}
	}
}

// round executes the window (c.now, end] over every domain.
func (p *roundPool) round(end Time) {
	c := p.c
	var t0 time.Time
	if c.waitStats != nil {
		t0 = time.Now()
	}
	p.active = p.active[:0]
	for i, d := range c.domains {
		if t, ok := d.Loop.NextEventAt(); ok && t <= end {
			p.active = append(p.active, i)
			continue
		}
		d.Loop.Run(end) // nothing due: only the clock moves
		if c.waitStats != nil {
			c.workNs[i] = 0
		}
	}
	if n := len(p.active); n > 0 {
		p.end = end
		p.left.Store(int32(n))
		p.epoch++
		p.claim.Store(p.epoch<<32 | uint64(n)<<16)
		for _, k := range p.kick[:min(len(p.kick), n-1)] {
			select {
			case k <- struct{}{}:
			default: // already woken and not yet running: it will find this round
			}
		}
		if !p.work() {
			<-p.done
		}
	}
	if c.waitStats != nil {
		c.recordWaits(time.Since(t0).Nanoseconds())
	}
}

// work claims and runs the published round's active domains until none
// is left unclaimed, and reports whether the caller finished the round's
// last domain.
func (p *roundPool) work() (last bool) {
	for {
		w := p.claim.Load()
		next, n := w&0xffff, w>>16&0xffff
		if next == n {
			return last
		}
		if !p.claim.CompareAndSwap(w, w+1) {
			continue
		}
		i := p.active[next]
		if p.c.waitStats != nil {
			t0 := time.Now()
			p.c.domains[i].Loop.Run(p.end)
			p.c.workNs[i] = time.Since(t0).Nanoseconds()
		} else {
			p.c.domains[i].Loop.Run(p.end)
		}
		last = p.left.Add(-1) == 0
	}
}
