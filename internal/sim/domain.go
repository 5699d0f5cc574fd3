package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file implements the synchronization of conservative parallel
// discrete-event simulation over a set of Loops ("domains"). The model is
// the classic null-message-free synchronous variant: all cross-domain
// interactions carry a minimum latency of at least the coordinator's
// lookahead L, so virtual time can advance in rounds of width L with a
// barrier between rounds.
//
// Correctness argument. A round covers the half-open window (T, T+L]. While
// a domain executes its round, its clock satisfies now > T (events fire at
// their timestamps, which lie inside the window; a domain that merely
// advances its clock posts nothing). Every cross-domain message is sent via
// Mailbox.Post, which requires the arrival time to be at least the sender's
// now plus the mailbox delay, and the mailbox delay is at least L. So every
// message posted during round (T, T+L] arrives strictly after T+L — i.e. in
// a later round. Draining mailboxes at the barrier therefore delivers every
// message before any domain could possibly execute it, and no domain ever
// receives an event in its past.
//
// Determinism. Domains only share state through mailboxes. At each barrier
// the coordinator — on a single goroutine — drains mailboxes in registration
// order, FIFO within each, scheduling each envelope's dispatch onto the
// receiving Loop at its arrival time. Each Loop assigns its own monotonic
// sequence numbers, so the event order inside every domain is a pure
// function of (round schedule, mailbox registration order, per-domain event
// history), whichever goroutine runs a domain. Because typed envelopes are
// data (see envelope.go), multi-process execution of a partition of the
// domain graph (see shard.go) is therefore bit-identical to running it
// whole: the same envelopes reach the same mailboxes at the same times in
// the same order, whether by reference or by wire.

// Domain is one event loop in a partitioned simulation. All state owned by
// a domain must only be touched from its Loop's callbacks; the only legal
// cross-domain channel is a Mailbox.
type Domain struct {
	Loop *Loop
	name string
	id   int
}

// Name returns the label the domain was created with.
func (d *Domain) Name() string { return d.name }

// pendingEnv is one posted envelope awaiting the round barrier.
type pendingEnv struct {
	at    Time
	env   Envelope
	trace uint64 // sender's causal trace register at Post time
}

// Mailbox is a single-sender, single-receiver channel between two domains
// with a bounded minimum latency. Post may only be called from the sending
// domain's callbacks (or before the coordinator starts running); the
// envelopes are dispatched onto the receiving domain's Loop at the next
// round barrier. See envelope.go for the full envelope contract
// (ordering, min-delay, copy semantics).
type Mailbox struct {
	from, to *Domain
	minDelay Duration
	pending  []pendingEnv
	handlers map[EnvelopeKind]func(payload any)
	// free recycles typed dispatch records (see deliver).
	free []*dispatch
}

// dispatch is one typed envelope awaiting its handler on the receiving
// loop; fire is bound once, when the record is made.
type dispatch struct {
	h    func(payload any)
	p    any
	fire func()
}

// Post schedules env for dispatch in the receiving domain at virtual time
// at. The arrival must respect the mailbox's minimum delay relative to
// the sender's clock; violating it would break conservative
// synchronization, so Post panics rather than silently reordering time.
// The validation is shared by both directions of a Connect pair and by
// the deprecated PostFunc shim — no entry point or direction skips it.
func (m *Mailbox) Post(at Time, env Envelope) {
	m.checkDelay(at)
	m.pending = append(m.pending, pendingEnv{at: at, env: env, trace: m.from.Loop.curTrace})
}

// PostFunc schedules fn to run in the receiving domain at virtual time
// at — the old closure API, kept as a shim for tests and transitional
// callers.
//
// Deprecated: closures cannot cross a process boundary; use Post with a
// registered envelope kind. PostFunc applies the same min-delay
// validation as Post.
func (m *Mailbox) PostFunc(at Time, fn func()) {
	m.Post(at, Envelope{Kind: KindFunc, Payload: fn})
}

// checkDelay enforces the conservative-synchronization min-delay
// contract against the sender's clock.
func (m *Mailbox) checkDelay(at Time) {
	if now := m.from.Loop.Now(); at.Sub(now) < m.minDelay {
		panic(fmt.Sprintf(
			"sim: Mailbox.Post %s->%s at %v violates min delay %v (sender now %v)",
			m.from.name, m.to.name, at, m.minDelay, now))
	}
}

// OnReceive registers the receiving domain's handler for one envelope
// kind on this mailbox. The handler runs on the receiving domain's Loop
// at each envelope's arrival time. Registration happens at construction
// (before the coordinator runs) and is required for every typed kind the
// mailbox will carry; KindFunc needs no handler (the payload is the
// closure itself). Registering a kind twice panics: handler identity is
// part of the deterministic schedule.
func (m *Mailbox) OnReceive(kind EnvelopeKind, fn func(payload any)) {
	if kind == KindFunc {
		panic("sim: OnReceive(KindFunc): closure envelopes dispatch directly")
	}
	if _, ok := envelopeCodec(kind); !ok {
		panic(fmt.Sprintf("sim: OnReceive of unregistered envelope kind %d", kind))
	}
	if m.handlers == nil {
		m.handlers = make(map[EnvelopeKind]func(any))
	}
	if _, dup := m.handlers[kind]; dup {
		panic(fmt.Sprintf("sim: duplicate OnReceive for envelope kind %s on %s->%s",
			EnvelopeKindName(kind), m.from.name, m.to.name))
	}
	m.handlers[kind] = fn
}

// deliver schedules one envelope's dispatch onto the receiving Loop. A
// KindFunc payload is the event closure itself; a typed payload is
// dispatched through the mailbox's registered handler at the same
// virtual time, so both forms produce identical event schedules. The
// sender's causal trace id is stamped onto the scheduled event so the
// receiving domain's handler (and anything it schedules) continues the
// sender's trace.
//
// A typed envelope rides a dispatch record from the mailbox's pool,
// whose event callback was bound when the record was made, so a
// delivery allocates nothing once the pool holds a record. deliver runs
// at the round barrier, on the coordinator's goroutine, while no domain
// executes; the record returns to the pool when the receiving loop
// fires it, inside a round. The barrier orders the two, so the pool
// needs no lock.
func (m *Mailbox) deliver(at Time, env Envelope, trace uint64) {
	if env.Kind == KindFunc {
		m.to.Loop.At(at, env.Payload.(func())).trace = trace
		return
	}
	h := m.handlers[env.Kind]
	if h == nil {
		panic(fmt.Sprintf("sim: no OnReceive handler for envelope kind %s on %s->%s",
			EnvelopeKindName(env.Kind), m.from.name, m.to.name))
	}
	var d *dispatch
	if k := len(m.free); k > 0 {
		d = m.free[k-1]
		m.free[k-1] = nil
		m.free = m.free[:k-1]
	} else {
		d = &dispatch{}
		d.fire = func() { m.fire(d) }
	}
	d.h, d.p = h, env.Payload
	m.to.Loop.At(at, d.fire).trace = trace
}

// fire runs d's handler on the receiving loop, returning d to the pool
// first so the record pins no payload while the handler runs.
func (m *Mailbox) fire(d *dispatch) {
	h, p := d.h, d.p
	d.h, d.p = nil, nil
	m.free = append(m.free, d)
	h(p)
}

// Coordinator advances a set of domains in lockstep rounds of width equal
// to the lookahead, draining mailboxes at the barrier between rounds. A
// round runs the domains one after another, in registration order, on
// the goroutine that called Run, which lends the call's GOMAXPROCS−1
// helpers to the domains' fan-outs (Loop.Fan). Domains that share no
// mailbox need no barrier, so without one each Run is a single round to
// its horizon.
type Coordinator struct {
	lookahead Duration
	domains   []*Domain
	boxes     []*Mailbox
	now       Time
	rounds    int64
	exchanges int64
	// waitStats, when non-nil, collects per-domain wall-clock barrier
	// waits (EnableWaitStats). workNs is each domain's Loop.Run time in
	// the round in progress.
	waitStats []waitRec
	workNs    []int64
	// helpers counts live fan-out helper goroutines; Run returns only
	// once it is back to zero.
	helpers atomic.Int32
}

// NewCoordinator returns a coordinator advancing time in rounds of width
// lookahead. Domains that share no mailbox cannot affect each other, so
// until the first Connect every Run is one round straight to its
// horizon and the lookahead is unused; Connect requires it positive.
// There is one executor: a round's domains run on the Run goroutine,
// because a round of a few microseconds' work costs less than handing a
// domain to another goroutine, and only fan-outs spread over helpers.
func NewCoordinator(lookahead Duration) *Coordinator {
	return &Coordinator{lookahead: lookahead}
}

// Lookahead returns the round width.
func (c *Coordinator) Lookahead() Duration { return c.lookahead }

// Now returns the lower bound on virtual time across all domains: every
// domain's clock is at least Now, and all mailboxes posted before Now have
// been delivered.
func (c *Coordinator) Now() Time { return c.now }

// NewDomain registers a new domain with its own Loop.
func (c *Coordinator) NewDomain(name string) *Domain {
	d := &Domain{Loop: NewLoop(), name: name, id: len(c.domains)}
	c.domains = append(c.domains, d)
	return d
}

// Connect creates a mailbox from one domain to another. The lookahead
// must be positive, as a zero one admits no conservative parallelism,
// and minDelay must be at least the lookahead; mailbox drain order
// follows Connect call order, which is part of the deterministic
// schedule.
func (c *Coordinator) Connect(from, to *Domain, minDelay Duration) *Mailbox {
	if c.lookahead <= 0 {
		panic("sim: coordinator lookahead must be positive to connect domains")
	}
	if minDelay < c.lookahead {
		panic(fmt.Sprintf("sim: mailbox min delay %v below coordinator lookahead %v",
			minDelay, c.lookahead))
	}
	if from == to {
		panic("sim: mailbox must connect two distinct domains")
	}
	m := &Mailbox{from: from, to: to, minDelay: minDelay}
	c.boxes = append(c.boxes, m)
	return m
}

// drain moves every pending mailbox envelope onto its receiving Loop.
// Runs on the coordinator goroutine while no domain executes, in
// registration order and FIFO within each mailbox, so the resulting
// event sequence numbers are deterministic. Most boxes are empty in most
// rounds; they are skipped without touching their slices.
func (c *Coordinator) drain() {
	for _, m := range c.boxes {
		if len(m.pending) == 0 {
			continue
		}
		for _, p := range m.pending {
			m.deliver(p.at, p.env, p.trace)
		}
		clearPending(m)
	}
}

// clearPending empties a mailbox, zeroing entries so payloads don't
// pin their referents past delivery.
func clearPending(m *Mailbox) {
	for i := range m.pending {
		m.pending[i] = pendingEnv{}
	}
	m.pending = m.pending[:0]
}

// nextEventAt returns the earliest pending event across all domains.
func (c *Coordinator) nextEventAt() (Time, bool) {
	var best Time
	ok := false
	for _, d := range c.domains {
		if t, has := d.Loop.NextEventAt(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Run advances all domains to virtual time until. It may be called
// repeatedly to advance incrementally. The fan-out helpers live only for
// the duration of the call: Run returns after every one of them has
// exited.
func (c *Coordinator) Run(until Time) {
	if until <= c.now {
		return
	}
	runsInProgress.Add(1)
	defer runsInProgress.Add(-1)
	// Deliver anything posted during construction (sender clocks at zero)
	// before the first round executes.
	c.drain()
	defer c.closeFanPool(c.newFanPool())

	for c.now < until {
		next, hasNext := c.nextEventAt()
		end := c.roundEnd(next, hasNext, until)
		if c.waitStats != nil {
			c.timedRound(end)
		} else {
			for _, d := range c.domains {
				d.Loop.Run(end)
			}
		}
		c.drain()
		c.now = end
		c.rounds++
	}
}

// timedRound runs the window (c.now, end] over every domain, as Run's
// untimed round does, and records each domain's barrier wait. Only a
// domain with an event due by end is timed; any other only has its
// clock advanced and counts no work.
func (c *Coordinator) timedRound(end Time) {
	t0 := time.Now()
	for i, d := range c.domains {
		if t, ok := d.Loop.NextEventAt(); ok && t <= end {
			t1 := time.Now()
			d.Loop.Run(end)
			c.workNs[i] = time.Since(t1).Nanoseconds()
			continue
		}
		d.Loop.Run(end)
		c.workNs[i] = 0
	}
	c.recordWaits(time.Since(t0).Nanoseconds())
}

// roundEnd returns where the round after c.now ends, given the earliest
// pending event: one lookahead on, clamped to until. With no mailbox, or
// nothing pending anywhere and every mailbox drained, no domain can
// receive an event from another, so the round runs straight to until.
// When the earliest event is more than a round away, an idle round
// advances to next-L so that the round after it, (next-L, next],
// contains the event. Every input is identical in whole and partitioned
// runs, so the round schedule preserves bit-identity.
func (c *Coordinator) roundEnd(next Time, hasNext bool, until Time) Time {
	end := c.now.Add(c.lookahead)
	if !hasNext || len(c.boxes) == 0 {
		end = until
	} else if s := next.Add(-c.lookahead); s > end {
		end = s
	}
	return min(end, until)
}

// Rounds returns the number of synchronization rounds executed so far —
// the coordinator's occupancy measure for telemetry. Read it between
// Run calls only.
func (c *Coordinator) Rounds() int64 { return c.rounds }

// WaitBoundsNs are the bucket bounds (nanoseconds) of the barrier-wait
// histograms: 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s, +overflow.
var WaitBoundsNs = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// waitRec accumulates one domain's barrier waits.
type waitRec struct {
	rounds  int64
	sumNs   int64
	maxNs   int64
	buckets [8]int64 // len(WaitBoundsNs)+1
}

// WaitStat summarizes one domain's wall-clock barrier waits. A domain's
// wait in one round is the round's wall time minus the domain's own
// Loop.Run time in it: the time the other domains of the round took. A
// domain with no event due in the round counts no work, so it waits the
// whole round, and Rounds counts every round of the coordinator, active
// or not. Wall-clock and therefore
// nondeterministic — this deliberately lives outside the telemetry
// registry (whose snapshots must be a pure function of the simulated
// schedule) and is surfaced through wgtt-serve's introspection
// endpoints instead.
type WaitStat struct {
	Domain  string  `json:"domain"`
	Rounds  int64   `json:"rounds"`
	SumNs   int64   `json:"sum_ns"`
	MaxNs   int64   `json:"max_ns"`
	Buckets []int64 `json:"buckets"` // per WaitBoundsNs, last = overflow
}

// EnableWaitStats turns on barrier-wait collection for subsequent Run
// calls: two clock reads per round, plus two per domain with an event
// due in it. Off by default, so an untimed round reads no clock.
// RunPartitioned records nothing.
func (c *Coordinator) EnableWaitStats() {
	if c.waitStats == nil {
		c.waitStats = make([]waitRec, len(c.domains))
		c.workNs = make([]int64, len(c.domains))
	}
}

// recordWaits folds one round's per-domain waits (round wall time minus
// the domain's own work time) into the histograms.
func (c *Coordinator) recordWaits(roundNs int64) {
	for i := range c.waitStats {
		wait := roundNs - c.workNs[i]
		if wait < 0 {
			wait = 0
		}
		r := &c.waitStats[i]
		r.rounds++
		r.sumNs += wait
		if wait > r.maxNs {
			r.maxNs = wait
		}
		bi := len(WaitBoundsNs)
		for j, b := range WaitBoundsNs {
			if wait <= b {
				bi = j
				break
			}
		}
		r.buckets[bi]++
	}
}

// WaitStats returns the per-domain barrier-wait summaries, or nil when
// collection was never enabled. Read it between Run calls only.
func (c *Coordinator) WaitStats() []WaitStat {
	if c.waitStats == nil {
		return nil
	}
	out := make([]WaitStat, len(c.waitStats))
	for i, r := range c.waitStats {
		out[i] = WaitStat{
			Domain:  c.domains[i].name,
			Rounds:  r.rounds,
			SumNs:   r.sumNs,
			MaxNs:   r.maxNs,
			Buckets: append([]int64(nil), r.buckets[:]...),
		}
	}
	return out
}

// PendingEnvelopesFrom returns the number of envelopes currently
// pending in mailboxes whose sender is d — the domain's outgoing
// envelope-queue depth. Posts append and barriers drain, both on the
// domain's own schedule, so when read from one of d's own callbacks
// (the telemetry sampler) the value is a pure function of the simulated
// schedule and is safe to feed a deterministic gauge.
func (c *Coordinator) PendingEnvelopesFrom(d *Domain) int {
	n := 0
	for _, m := range c.boxes {
		if m.from == d {
			n += len(m.pending)
		}
	}
	return n
}

// RunFor advances the simulation by d from the coordinator's current time.
func (c *Coordinator) RunFor(d Duration) { c.Run(c.now.Add(d)) }
