package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pool executes fan-outs (Loop.Fan) on the goroutine that publishes them
// and on up to len(helpers) helper goroutines. A fan-out is one job of
// independent items: whatever Loop.Fan's caller splits its work into, a
// medium's candidate receivers of one PPDU.
//
// The publisher writes the job, stores the claim word, wakes parked
// helpers, and then claims items itself. Items are claimed one at a time
// by compare-and-swap on the claim word, by the publisher and by every
// helper that sees the job, so the publisher never waits for a helper to
// start: a helper woken after the job's items are gone finds nothing to
// claim. The publisher blocks only while a helper still holds an item.
// With no helpers the publisher runs every item alone.
//
// Determinism does not depend on which goroutine runs which item: the
// items of one job share nothing they write, and the publisher consumes
// their results only after the job completes.
type pool struct {
	// claim packs the published job's work counter as
	// epoch<<32 | n<<16 | next: n items, of which the first next are
	// claimed. A claimer advances next by compare-and-swap on the whole
	// word, so a claim can only succeed against the job currently
	// published, whose epoch no earlier job shares.
	claim atomic.Uint64
	epoch uint64
	// fn and base describe the published job: claimed item k runs
	// fn(base+k). The publisher writes them before publishing claim and
	// clears fn once every item has finished, so a goroutine whose claim
	// succeeded may read them and the pool keeps no reference to the job
	// between jobs.
	fn   func(i int)
	base int
	// left counts the job's items not yet finished. Whoever brings it to
	// zero finished the job; a helper that does so sends the publisher
	// the job's one token on done.
	left atomic.Int32
	done chan struct{}

	helpers []*helper
	// live is the owning coordinator's count of live helpers.
	live *atomic.Int32
	stop atomic.Bool
	wg   sync.WaitGroup

	// fault is the first panic recovered from an item, re-raised on the
	// publisher once every item of the job has finished.
	fault atomic.Pointer[any]

	// started marks a lending pool whose helpers have been started
	// (lend); publisher-only.
	started bool
}

// helper is one helper goroutine's wake-up state. asleep is set while
// the helper is parked (or about to park) on kick; a publisher that
// clears it owes the helper one token on kick.
type helper struct {
	kick   chan struct{}
	asleep atomic.Bool
}

// maxJob is the largest job the claim word can describe.
const maxJob = 0xffff

// fanSpin is how long an idle helper, and a publisher waiting for a
// helper's last item, keep watching the pool before they park. Parking
// and waking cost microseconds on each side, as much as a whole
// fan-out's share of work, so the spin covers the usual gap between two
// deliveries; a longer quiet spell parks the helper.
const fanSpin = 200 * time.Microsecond

// spinCheck is the number of claim-word loads between two clock reads
// (and scheduler yields) while spinning.
const spinCheck = 256

// runsInProgress counts the Coordinator Run and RunPartitioned calls in
// progress in the process. A fan-out borrows helpers only while it is 1:
// with a second run in progress (another ride of a parallel experiment
// runner, a second in-process shard) the cores are already taken, and
// helpers would only oversubscribe them.
var runsInProgress atomic.Int32

// start adds k helper goroutines.
func (p *pool) start(k int) {
	for i := 0; i < k; i++ {
		h := &helper{kick: make(chan struct{}, 1)}
		p.helpers = append(p.helpers, h)
		p.wg.Add(1)
		p.live.Add(1)
		go p.help(h)
	}
}

// close stops the helpers and waits until every one has exited.
func (p *pool) close() {
	p.stop.Store(true)
	for _, h := range p.helpers {
		close(h.kick)
	}
	p.wg.Wait()
	p.helpers = nil
}

// lend reports whether a fan-out may use the pool's helpers now,
// starting them at the first fan-out that may: GOMAXPROCS−1 of them,
// none at GOMAXPROCS=1. A fan-out never borrows while another run is in
// progress in the process.
func (p *pool) lend() bool {
	if runsInProgress.Load() != 1 {
		return false
	}
	if !p.started {
		p.started = true
		p.start(runtime.GOMAXPROCS(0) - 1)
	}
	return len(p.helpers) > 0
}

// run executes fn(base+k) for every k in [0, n), 1 ≤ n ≤ maxJob, and
// returns once all of them have finished. A panic in any item is
// re-raised here, on the publisher, after the rest have finished.
func (p *pool) run(base, n int, fn func(i int)) {
	p.fn, p.base = fn, base
	p.left.Store(int32(n))
	p.epoch++
	p.claim.Store(p.epoch<<32 | uint64(n)<<16)
	p.wake(n - 1)
	if !p.work() {
		p.join()
	}
	p.fn = nil
	if f := p.fault.Load(); f != nil {
		p.fault.Store(nil)
		panic(*f)
	}
}

// wake rouses up to k parked helpers for the job just published. A
// helper still spinning sees the job without being woken.
func (p *pool) wake(k int) {
	for _, h := range p.helpers[:min(k, len(p.helpers))] {
		if h.asleep.Load() && h.asleep.CompareAndSwap(true, false) {
			h.kick <- struct{}{}
		}
	}
}

// work claims and runs the published job's items until none is left
// unclaimed, and reports whether the caller finished the job's last item.
func (p *pool) work() (last bool) {
	for {
		w := p.claim.Load()
		next, n := w&0xffff, w>>16&0xffff
		if next == n {
			return last
		}
		if !p.claim.CompareAndSwap(w, w+1) {
			continue
		}
		p.call(p.base + int(next))
		last = p.left.Add(-1) == 0
	}
}

// call runs one item, recording a panic instead of unwinding the
// goroutine, so the job still completes and run can re-raise it.
func (p *pool) call(i int) {
	defer func() {
		if r := recover(); r != nil {
			f := r // boxed only on this path
			p.fault.CompareAndSwap(nil, &f)
		}
	}()
	p.fn(i)
}

// unclaimed reports whether the published job has an item nobody has
// claimed yet.
func (p *pool) unclaimed() bool {
	w := p.claim.Load()
	return w&0xffff != w>>16&0xffff
}

// join waits for the job's last item, held by a helper: it watches left
// for fanSpin, then blocks on the helper's token.
func (p *pool) join() {
	start := time.Now()
	for i := 1; ; i++ {
		if p.left.Load() == 0 {
			select {
			case <-p.done:
				return
			default: // the last helper has not sent its token yet
			}
		}
		if i%spinCheck == 0 && time.Since(start) > fanSpin {
			break
		}
	}
	<-p.done
}

func (p *pool) help(h *helper) {
	defer p.wg.Done()
	defer p.live.Add(-1)
	for {
		if p.work() {
			p.done <- struct{}{}
		}
		if !p.await(h) {
			return
		}
	}
}

// await returns true once a job with unclaimed items may be published,
// false when the pool is closing. It watches the claim word for fanSpin,
// yielding the processor now and then to any other runnable goroutine,
// and then parks until a publisher wakes it.
func (p *pool) await(h *helper) bool {
	start := time.Now()
	for i := 1; ; i++ {
		if p.stop.Load() {
			return false
		}
		if p.unclaimed() {
			return true
		}
		if i%spinCheck == 0 {
			if time.Since(start) > fanSpin {
				break
			}
			runtime.Gosched()
		}
	}
	h.asleep.Store(true)
	if (p.unclaimed() || p.stop.Load()) && h.asleep.CompareAndSwap(true, false) {
		return !p.stop.Load()
	}
	// Parked, or a publisher has claimed this wake-up and owes a token.
	_, ok := <-h.kick
	return ok
}

// newFanPool is a coordinator's loan to its domains' fan-outs for one
// Run call. The helpers start at the call's first fan-out that may
// borrow them (lend), and every loop forgets the pool when the call ends.
func (c *Coordinator) newFanPool() *pool {
	p := &pool{live: &c.helpers, done: make(chan struct{}, 1)}
	for _, d := range c.domains {
		d.Loop.fan = p
	}
	return p
}

// closeFanPool ends a Run call's loan.
func (c *Coordinator) closeFanPool(p *pool) {
	for _, d := range c.domains {
		d.Loop.fan = nil
	}
	p.close()
}
