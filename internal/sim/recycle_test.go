package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestMailboxTypedDispatchAllocatesNothing: once one envelope has warmed
// the mailbox's record pool, the loops' event free lists and the pending
// slice, posting a typed envelope, draining it at the barrier and
// dispatching it on the receiving loop allocates nothing beyond what
// running the two loops for the round allocates without it (nothing,
// unless the simcheck owner guard reads goroutine ids in Run).
func TestMailboxTypedDispatchAllocatesNothing(t *testing.T) {
	c := NewCoordinator(Millisecond, false)
	a, b := c.NewDomain("a"), c.NewDomain("b")
	mb := c.Connect(a, b, Millisecond)
	v := &ringVal{Val: 1}
	sum := 0
	mb.OnReceive(kindTestLocal, func(p any) { sum += p.(*ringVal).Val })
	round := func() {
		for _, d := range []*Domain{a, b} {
			d.Loop.Run(d.Loop.Now().Add(Millisecond))
		}
	}
	cycle := func() {
		mb.Post(a.Loop.Now().Add(Millisecond), Envelope{Kind: kindTestLocal, Payload: v})
		c.drain()
		round()
	}
	cycle()
	base := testing.AllocsPerRun(100, round)
	if allocs := testing.AllocsPerRun(100, cycle) - base; allocs != 0 {
		t.Errorf("a typed envelope's post, drain and dispatch allocate %v objects, want 0", allocs)
	}
	if sum != 102 {
		t.Fatalf("handler saw %d envelopes, want 102", sum)
	}
	if len(mb.free) != 1 {
		t.Errorf("mailbox pool holds %d records after serial envelopes, want 1", len(mb.free))
	}
}

// TestMailboxDispatchRecordsStayPerEnvelope: envelopes drained in one
// barrier are in flight together, each on its own record, until the
// receiving loop fires them; a record goes back to the pool only then,
// and holds no payload there.
func TestMailboxDispatchRecordsStayPerEnvelope(t *testing.T) {
	c := NewCoordinator(Millisecond, false)
	a, b := c.NewDomain("a"), c.NewDomain("b")
	mb := c.Connect(a, b, Millisecond)
	var got []int
	mb.OnReceive(kindTestLocal, func(p any) { got = append(got, p.(*ringVal).Val) })
	for i := 1; i <= 3; i++ {
		mb.Post(Time(Duration(i)*Millisecond), Envelope{Kind: kindTestLocal, Payload: &ringVal{Val: i}})
	}
	c.drain()
	if len(mb.free) != 0 {
		t.Fatalf("%d records back in the pool before any fired", len(mb.free))
	}
	b.Loop.Run(Time(2 * Millisecond))
	if len(mb.free) != 2 {
		t.Fatalf("%d records in the pool after two of three fired, want 2", len(mb.free))
	}
	b.Loop.Run(Time(3 * Millisecond))
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("handler saw %v, want [1 2 3]", got)
	}
	for _, d := range mb.free {
		if d.h != nil || d.p != nil {
			t.Error("pooled dispatch record still holds its handler or payload")
		}
	}
}

// pingPong bounces a countdown between two domains. Every arrival logs
// itself, schedules a local event and, from inside its own dispatch,
// posts two envelopes back at distinct times, until the count runs out.
// typed carries the hops as registered envelopes (pooled dispatch
// records); otherwise as PostFunc closures, each its own event callback.
func pingPong(parallel, typed bool) []string {
	c := NewCoordinator(200*Microsecond, parallel)
	doms := []*Domain{c.NewDomain("a"), c.NewDomain("b")}
	boxes := []*Mailbox{
		c.Connect(doms[0], doms[1], 300*Microsecond),
		c.Connect(doms[1], doms[0], 250*Microsecond),
	}
	logs := make([][]string, 2)
	var arrive func(i, n, from int)
	arrive = func(i, n, from int) {
		d := doms[i]
		now := d.Loop.Now()
		logs[i] = append(logs[i], fmt.Sprintf("%s got %d from %d @%v", d.name, n, from, now))
		d.Loop.After(40*Microsecond, func() {
			logs[i] = append(logs[i], fmt.Sprintf("%s local %d @%v", d.name, n, d.Loop.Now()))
		})
		if n == 0 {
			return
		}
		mb, j := boxes[i], 1-i
		for k := 0; k < 2; k++ {
			at := now.Add(mb.minDelay + Duration(k*37)*Microsecond)
			if typed {
				mb.Post(at, Envelope{Kind: kindTestLocal, Payload: &ringVal{Val: n - 1, From: k}})
			} else {
				n, k := n-1, k
				mb.PostFunc(at, func() { arrive(j, n, k) })
			}
		}
	}
	if typed {
		for i, mb := range boxes {
			j := 1 - i
			mb.OnReceive(kindTestLocal, func(p any) {
				v := p.(*ringVal)
				arrive(j, v.Val, v.From)
			})
		}
	}
	doms[0].Loop.At(0, func() { arrive(0, 7, -1) })
	c.Run(Time(20 * Millisecond))
	return append(logs[0], logs[1]...)
}

// TestPooledDispatchKeepsEventOrder: handlers that post from inside a
// pooled dispatch produce the event order the closure form produces,
// under serial and parallel rounds.
func TestPooledDispatchKeepsEventOrder(t *testing.T) {
	want := pingPong(false, false)
	if len(want) < 500 {
		t.Fatalf("ping-pong logged only %d events", len(want))
	}
	for _, parallel := range []bool{false, true} {
		if got := pingPong(parallel, true); !slices.Equal(got, want) {
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("parallel=%v: event %d is %q, closure form has %q", parallel, k, got[k], want[k])
				}
			}
			t.Fatalf("parallel=%v: %d events, closure form has %d", parallel, len(got), len(want))
		}
	}
}

// TestRearmSchedulesLikeAtKeep: a keep event re-armed after it fired, or
// after it was canceled, takes the next sequence number as a new AtKeep
// event would, so it runs in the same order among same-time events; nil
// re-arms as AtKeep; a pending or recyclable event cannot be re-armed.
func TestRearmSchedulesLikeAtKeep(t *testing.T) {
	ride := func(rearm bool) []string {
		l := NewLoop()
		var log []string
		mark := func(s string) func() { return func() { log = append(log, fmt.Sprintf("%s@%v", s, l.Now())) } }
		var timer *Event
		arm := func(at Time, fn func()) {
			if rearm {
				timer = l.Rearm(timer, at, fn)
			} else {
				timer = l.AtKeep(at, fn)
			}
		}
		for k := 1; k <= 4; k++ {
			at := Time(Duration(k) * Millisecond)
			l.At(at, mark(fmt.Sprintf("before%d", k)))
			arm(at, mark(fmt.Sprintf("timer%d", k)))
			l.At(at, mark(fmt.Sprintf("after%d", k)))
			if k%2 == 0 {
				l.Cancel(timer) // settled early: the next arming reuses it canceled
			}
			l.Run(at)
		}
		return log
	}
	want := ride(false)
	if got := ride(true); !slices.Equal(got, want) {
		t.Fatalf("re-armed timer ran as %v, AtKeep as %v", got, want)
	}

	l := NewLoop()
	e := l.Rearm(nil, Time(Millisecond), func() {})
	if !e.keep {
		t.Fatal("Rearm(nil) did not schedule a keep event")
	}
	for _, bad := range []*Event{e, l.At(Time(Millisecond), func() {})} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Rearm of a pending or recyclable event did not panic")
				}
			}()
			l.Rearm(bad, Time(2*Millisecond), func() {})
		}()
	}
}
