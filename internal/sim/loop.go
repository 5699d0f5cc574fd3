package sim

import (
	"container/heap"
	"fmt"
)

// Event is a callback scheduled to fire at a virtual time. Events with the
// same firing time execute in scheduling order, which keeps runs
// deterministic regardless of heap internals.
//
// Events returned by At/After are recycled onto a per-loop free list as
// soon as their callback returns, so a handle must not be used (Cancel,
// Canceled, When) after the event has fired — by then the same *Event may
// already carry an unrelated pending callback. Callers that need a handle
// which stays inert after firing (so an unconditional late Cancel is a
// no-op rather than a stray cancellation) schedule with AtKeep, and may
// schedule such an event again with Rearm once it has fired or been
// canceled. A canceled event is never recycled by the loop.
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// index is the event's position in the heap, or -1 once fired/canceled.
	index int
	// keep marks events excluded from free-list recycling (AtKeep).
	keep bool
	// trace is the causal trace id captured from the scheduling loop's
	// current trace register (see Loop.SetTrace). Zero means untraced.
	trace uint64
}

// Canceled reports whether the event has been canceled or already fired.
func (e *Event) Canceled() bool { return e.index < 0 }

// When returns the virtual time the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Loop is the discrete-event scheduler. The zero value is not usable; call
// NewLoop.
//
// A Loop is single-goroutine: all scheduling must happen either before Run
// or from within event callbacks on the goroutine executing Run. The
// parallel experiment runner relies on this by giving every run its own
// Loop. Builds tagged `simcheck` verify the rule at runtime and panic on
// cross-goroutine At/Cancel calls.
type Loop struct {
	now     Time
	events  eventHeap
	nextSeq uint64
	running bool
	stopped bool
	// owner is the id of the goroutine executing Run; only tracked when
	// ownerCheckEnabled (build tag simcheck).
	owner uint64
	// executed counts events fired over the loop's lifetime. Plain
	// int64: sim must not depend on the telemetry layer, which reads
	// this through Executed as a loop-occupancy gauge.
	executed int64
	// free is the Event free list: fired events (minus AtKeep ones) are
	// recycled here so a steady event stream costs no allocation.
	free []*Event
	// curTrace is the causal trace register: the trace id of the event
	// currently executing. At stamps it onto every event it schedules, so
	// causality flows through timers and message deliveries without any
	// call-site changes; protocol code that *originates* a causal chain
	// (e.g. the controller issuing a switch) brackets the originating
	// calls with SetTrace.
	curTrace uint64
	// fan is the pool a serial Coordinator.Run lends this loop's
	// fan-outs for the length of the call; nil otherwise.
	fan *pool
}

// OwnerChecked reports whether this build checks that each Loop is used
// from one goroutine (build tag simcheck). The check reads the calling
// goroutine's id on every scheduling call inside Run and allocates doing
// so, so an allocation count of code that schedules events holds only
// in builds where OwnerChecked is false.
const OwnerChecked = ownerCheckEnabled

// checkOwner panics if the caller is scheduling against a Loop that is
// mid-Run on a different goroutine. Compiled away unless the simcheck
// build tag is set.
func (l *Loop) checkOwner(op string) {
	if !ownerCheckEnabled || !l.running {
		return
	}
	if g := goid(); g != l.owner {
		panic(fmt.Sprintf(
			"sim: Loop.%s called from goroutine %d while Run executes on goroutine %d; "+
				"a Loop is single-goroutine — each parallel run must own its Loop",
			op, g, l.owner))
	}
}

// NewLoop returns a scheduler positioned at virtual time zero.
func NewLoop() *Loop {
	return &Loop{}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it is always a logic error in a discrete-event model, and silently
// clamping would hide causality bugs.
func (l *Loop) At(t Time, fn func()) *Event {
	l.checkSchedule("At", t)
	var e *Event
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		e.keep = false
	} else {
		e = &Event{}
	}
	l.push(e, t, fn)
	return e
}

// checkSchedule enforces At's rules for every way of scheduling: the
// owner goroutine, and no event in the past.
func (l *Loop) checkSchedule(op string, t Time) {
	l.checkOwner(op)
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, l.now))
	}
}

// push queues e to run fn at t, stamping the next sequence number and
// the current trace id.
func (l *Loop) push(e *Event, t Time, fn func()) {
	e.when, e.fn = t, fn
	e.trace = l.curTrace
	e.seq = l.nextSeq
	l.nextSeq++
	heap.Push(&l.events, e)
}

// AtKeep is At for callers that keep the returned handle past the firing
// time: the event is never recycled, so a stale Cancel stays the
// documented no-op instead of hitting a reused Event. Off the hot path
// (client-side migration-safe timers); everything else uses At.
func (l *Loop) AtKeep(t Time, fn func()) *Event {
	e := l.At(t, fn)
	e.keep = true
	return e
}

// Rearm schedules fn at t on e, a handle of the caller's from AtKeep
// (or an earlier Rearm) that has fired or been canceled, exactly as
// AtKeep(t, fn) would schedule a new event: e takes the next sequence
// number and the current trace id, so the schedule is the same either
// way. With e nil it is AtKeep. An owner that keeps one timer for the
// life of a record re-arms it here instead of allocating an event per
// arming; it must hold the only handle, since a re-armed e is live
// again. Re-arming a pending or recyclable event panics.
func (l *Loop) Rearm(e *Event, t Time, fn func()) *Event {
	if e == nil {
		return l.AtKeep(t, fn)
	}
	l.checkSchedule("Rearm", t)
	if !e.keep || e.index >= 0 {
		panic("sim: Rearm of a pending event or one not from AtKeep")
	}
	l.push(e, t, fn)
	return e
}

// After schedules fn to run d after the current virtual time.
func (l *Loop) After(d Duration, fn func()) *Event {
	return l.At(l.now.Add(d), fn)
}

// Cancel removes a pending event. Canceling an event that already fired or
// was already canceled is a no-op, so callers can cancel unconditionally.
func (l *Loop) Cancel(e *Event) {
	l.checkOwner("Cancel")
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&l.events, e.index)
	e.index = -1
}

// Run executes events in timestamp order until the queue drains or the
// virtual clock passes until. The clock is left at min(until, last event
// time); events scheduled after until remain pending so Run can be resumed.
func (l *Loop) Run(until Time) {
	if l.running {
		panic("sim: re-entrant Run")
	}
	l.running = true
	l.stopped = false
	if ownerCheckEnabled {
		l.owner = goid()
	}
	defer func() { l.running = false }()
	for len(l.events) > 0 && !l.stopped {
		next := l.events[0]
		if next.when > until {
			break
		}
		heap.Pop(&l.events)
		l.now = next.when
		l.executed++
		l.curTrace = next.trace
		next.fn()
		// Recycle after fn returns: a self-Cancel inside fn saw index
		// -1 and no-oped, so nothing still treats next as pending.
		if !next.keep {
			next.fn = nil
			l.free = append(l.free, next)
		}
	}
	if l.now < until {
		l.now = until
	}
	l.curTrace = 0
}

// Trace returns the causal trace id of the event currently executing
// (zero outside traced chains). See SetTrace.
func (l *Loop) Trace() uint64 { return l.curTrace }

// SetTrace sets the loop's causal trace register and returns its
// previous value. Every event scheduled while the register is nonzero
// inherits the id, and Run restores the register from each event before
// dispatching it, so one SetTrace at the origin of a protocol exchange
// (bracketed with a deferred restore of the previous value) threads the
// id through timers, retransmissions and mailbox deliveries with no
// further plumbing. Purely observational: the register never affects
// the event schedule, so runs are bit-identical whether or not anything
// reads it.
func (l *Loop) SetTrace(id uint64) uint64 {
	prev := l.curTrace
	l.curTrace = id
	return prev
}

// RunFor advances the simulation by d from the current virtual time.
func (l *Loop) RunFor(d Duration) { l.Run(l.now.Add(d)) }

// Fan calls fn(i) once for every i in [0, n) and returns after every
// call has returned. The calls may run concurrently: while the loop runs
// under a serial Coordinator's Run and no other coordinator run is in
// progress in the process, the Run goroutine and up to GOMAXPROCS−1
// helper goroutines claim the indices one at a time. Otherwise, and
// whenever n < 2, they run inline in index order, so a caller must not
// depend on either.
//
// The calls must therefore be independent of each other and of the
// order they run in: each may read state that none of them writes and
// write only what no other call touches (a result slot of its own), and
// none may schedule or cancel events, read the RNG, or call Fan. A panic
// in a call surfaces on the caller: at once when the calls run inline,
// and after every other call has finished when they run on
// helpers. A fan-out allocates nothing; fn should be bound once (a method
// value kept in a field) rather than built per call.
func (l *Loop) Fan(n int, fn func(i int)) {
	if p := l.fan; p != nil && n > 1 && p.lend() {
		for base := 0; base < n; base += maxJob {
			p.run(base, min(maxJob, n-base), fn)
		}
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Stop makes the current Run call return after the in-flight event
// completes. Pending events remain queued.
func (l *Loop) Stop() { l.stopped = true }

// Pending returns the number of events still queued.
func (l *Loop) Pending() int { return len(l.events) }

// Executed returns the number of events fired so far — the loop's
// occupancy measure for telemetry. Read it only from the loop's own
// callbacks or while the loop is quiescent.
func (l *Loop) Executed() int64 { return l.executed }

// NextEventAt returns the firing time of the earliest pending event, or
// ok=false when the queue is empty. The Coordinator uses it to fast-forward
// across idle synchronization rounds.
func (l *Loop) NextEventAt() (Time, bool) {
	if len(l.events) == 0 {
		return 0, false
	}
	return l.events[0].when, true
}
