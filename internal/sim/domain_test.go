package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// fanSum fans out len(out) items on l, item k writing v·(k+1) into its
// own slot, and returns the slots' sum: a fan-out result a log can
// record, the same whichever goroutine ran each item.
func fanSum(l *Loop, out []int, v int) int {
	l.Fan(len(out), func(k int) { out[k] = v * (k + 1) })
	sum := 0
	for _, x := range out {
		sum += x
	}
	return sum
}

// ringSignature builds nDom domains in a bidirectional ring. Each domain
// runs a self-rescheduling local event that mixes its RNG, fans out a
// sum over 16 items, and, every few firings, posts a value to a
// neighbour with a randomized (but >= minDelay) arrival offset. Every
// action appends to a per-domain log; concatenating the logs gives a
// signature that must not depend on whether the fan-outs ran inline or
// on helpers.
func ringSignature(t *testing.T, seed int64, nDom int) []string {
	t.Helper()
	const lookahead = 200 * Microsecond
	c := NewCoordinator(lookahead)
	doms := make([]*Domain, nDom)
	logs := make([][]string, nDom)
	for i := range doms {
		doms[i] = c.NewDomain(fmt.Sprintf("d%d", i))
	}
	boxes := make(map[[2]int]*Mailbox)
	for i := range doms {
		next := (i + 1) % nDom
		// Randomize per-edge minimum delays to model heterogeneous trunks;
		// all must stay >= lookahead.
		extraF := NewRNG(seed).Fork(fmt.Sprintf("delay%d", i)).Intn(5)
		extraR := NewRNG(seed).Fork(fmt.Sprintf("delayr%d", i)).Intn(5)
		boxes[[2]int{i, next}] = c.Connect(doms[i], doms[next],
			lookahead+Duration(extraF)*50*Microsecond)
		boxes[[2]int{next, i}] = c.Connect(doms[next], doms[i],
			lookahead+Duration(extraR)*50*Microsecond)
	}
	for i := range doms {
		i := i
		d := doms[i]
		rng := NewRNG(seed).Fork(fmt.Sprintf("dom%d", i))
		scratch := make([]int, 16)
		var tick func()
		fires := 0
		tick = func() {
			fires++
			now := d.Loop.Now()
			r := rng.Intn(1000)
			logs[i] = append(logs[i], fmt.Sprintf("d%d tick%d @%v r%d f%d",
				i, fires, now, r, fanSum(d.Loop, scratch, r)))
			if fires%3 == 0 {
				dst := (i + 1) % nDom
				if fires%2 == 0 {
					dst = (i + nDom - 1) % nDom
				}
				mb := boxes[[2]int{i, dst}]
				at := now.Add(mb.minDelay + Duration(rng.Intn(300))*Microsecond)
				val := fires * (i + 1)
				mb.PostFunc(at, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("d%d recv %d from d%d @%v",
						dst, val, i, doms[dst].Loop.Now()))
				})
			}
			if fires < 40 {
				d.Loop.After(Duration(50+rng.Intn(200))*Microsecond, tick)
			}
		}
		d.Loop.After(Duration(10+rng.Intn(50))*Microsecond, tick)
	}
	c.Run(Time(50 * Millisecond))
	var sig []string
	for i := range logs {
		sig = append(sig, logs[i]...)
	}
	if got := c.Now(); got != Time(50*Millisecond) {
		t.Fatalf("coordinator stopped at %v, want %v", got, Time(50*Millisecond))
	}
	return sig
}

// TestCoordinatorParallelMatchesSerial: a ring whose domains' fan-outs
// run in parallel on the Run goroutine's helpers (GOMAXPROCS 2 and 8)
// is bit-identical to the same ring at GOMAXPROCS 1, where every
// fan-out runs serially, inline.
func TestCoordinatorParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var serial []string
		withProcs(1, func() { serial = ringSignature(t, seed, 5) })
		if len(serial) == 0 {
			t.Fatalf("seed %d: empty signature — harness produced no events", seed)
		}
		for _, procs := range []int{2, 8} {
			var par []string
			withProcs(procs, func() { par = ringSignature(t, seed, 5) })
			if len(serial) != len(par) {
				t.Fatalf("seed %d GOMAXPROCS=%d: log length %d, want %d",
					seed, procs, len(par), len(serial))
			}
			for i := range serial {
				if serial[i] != par[i] {
					t.Fatalf("seed %d GOMAXPROCS=%d: first divergence at entry %d:\n serial: %s\n parallel: %s",
						seed, procs, i, serial[i], par[i])
				}
			}
		}
	}
}

// TestCoordinatorStressRace exercises many domains with randomized mailbox
// delays under the race detector (scripts/ci.sh runs this package with
// -race). The workload itself is the ring harness at a larger scale.
func TestCoordinatorStressRace(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		if sig := ringSignature(t, seed, 9); len(sig) == 0 {
			t.Fatalf("seed %d: empty signature", seed)
		}
	}
}

func TestMailboxPostBelowMinDelayPanics(t *testing.T) {
	c := NewCoordinator(200 * Microsecond)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	mb := c.Connect(a, b, 200*Microsecond)
	a.Loop.After(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Post below min delay did not panic")
			}
		}()
		mb.PostFunc(a.Loop.Now().Add(100*Microsecond), func() {})
	})
	c.Run(Time(2 * Millisecond))
}

// TestMailboxPostBelowMinDelayPanicsBothDirections pins the min-delay
// validation on BOTH mailboxes of a Connect pair and on both entry
// points (typed Post and the deprecated PostFunc shim): the check lives
// in one shared Mailbox.checkDelay, so neither direction nor API can
// drift to unvalidated posts.
func TestMailboxPostBelowMinDelayPanicsBothDirections(t *testing.T) {
	c := NewCoordinator(200 * Microsecond)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	fwd := c.Connect(a, b, 200*Microsecond)
	rev := c.Connect(b, a, 200*Microsecond)
	mustPanic := func(name string, post func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s below min delay did not panic", name)
			}
		}()
		post()
	}
	a.Loop.After(Millisecond, func() {
		at := a.Loop.Now().Add(100 * Microsecond)
		mustPanic("fwd Post", func() { fwd.Post(at, Envelope{Kind: KindFunc, Payload: func() {}}) })
		mustPanic("fwd PostFunc", func() { fwd.PostFunc(at, func() {}) })
	})
	b.Loop.After(Millisecond, func() {
		at := b.Loop.Now().Add(100 * Microsecond)
		mustPanic("rev Post", func() { rev.Post(at, Envelope{Kind: KindFunc, Payload: func() {}}) })
		mustPanic("rev PostFunc", func() { rev.PostFunc(at, func() {}) })
	})
	c.Run(Time(2 * Millisecond))
}

func TestConnectBelowLookaheadPanics(t *testing.T) {
	c := NewCoordinator(200 * Microsecond)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	defer func() {
		if recover() == nil {
			t.Error("Connect below lookahead did not panic")
		}
	}()
	c.Connect(a, b, 100*Microsecond)
}

// TestCoordinatorIdleFastForward checks that a sparse schedule does not
// cost one round per lookahead interval: a single event 10s out must fire,
// and all clocks must land exactly on the horizon.
func TestCoordinatorIdleFastForward(t *testing.T) {
	c := NewCoordinator(200 * Microsecond)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	fired := false
	a.Loop.At(Time(10*Second), func() { fired = true })
	c.Run(Time(11 * Second))
	if !fired {
		t.Fatal("distant event did not fire")
	}
	for _, d := range []*Domain{a, b} {
		if d.Loop.Now() != Time(11*Second) {
			t.Fatalf("domain %s clock %v, want %v", d.Name(), d.Loop.Now(), Time(11*Second))
		}
	}
}

// TestCoordinatorConstructionPosts checks that thunks posted before Run
// (sender clocks at zero) are delivered, including ones landing inside the
// very first round.
func TestCoordinatorConstructionPosts(t *testing.T) {
	c := NewCoordinator(200 * Microsecond)
	a := c.NewDomain("a")
	b := c.NewDomain("b")
	mb := c.Connect(a, b, 200*Microsecond)
	var got []Time
	mb.PostFunc(Time(200*Microsecond), func() { got = append(got, b.Loop.Now()) })
	mb.PostFunc(Time(5*Millisecond), func() { got = append(got, b.Loop.Now()) })
	c.Run(Time(10 * Millisecond))
	if len(got) != 2 || got[0] != Time(200*Microsecond) || got[1] != Time(5*Millisecond) {
		t.Fatalf("construction posts delivered at %v", got)
	}
}

// tickLog arms a self-rescheduling event on l that logs each firing with
// a draw from its own RNG stream, plus one event exactly on the first
// horizon of TestCoordinatorWithoutMailboxes. With fan, each firing also
// logs a sum fanned out over 16 items.
func tickLog(l *Loop, seed int64, i int, fan bool, log *[]string) {
	rng := NewRNG(seed).Fork(fmt.Sprintf("dom%d", i))
	scratch := make([]int, 16)
	var tick func()
	tick = func() {
		r := rng.Intn(1000)
		entry := fmt.Sprintf("tick @%v r%d", l.Now(), r)
		if fan {
			entry += fmt.Sprintf(" f%d", fanSum(l, scratch, r))
		}
		*log = append(*log, entry)
		l.After(Duration(50+rng.Intn(900))*Microsecond, tick)
	}
	l.After(Duration(10+rng.Intn(50))*Microsecond, tick)
	l.At(Time(3*Millisecond), func() { *log = append(*log, fmt.Sprintf("edge @%v", l.Now())) })
}

// TestCoordinatorWithoutMailboxes pins the one-round run: domains that
// share no mailbox cannot affect each other, so each Run is exactly one
// round straight to its horizon, and every domain fires the events a
// bare Loop.Run to the same horizons fires, at the same times, at
// GOMAXPROCS 1 and 8, with fan-outs (parallel=true: on the Run's
// helpers where GOMAXPROCS allows) and without. Only Connect needs a
// positive lookahead.
func TestCoordinatorWithoutMailboxes(t *testing.T) {
	const (
		seed = 7
		nDom = 4
	)
	horizons := []Time{Time(3 * Millisecond), Time(3*Millisecond + 1), Time(40 * Millisecond), Time(41 * Millisecond)}
	bare := func(fan bool) [][]string {
		logs := make([][]string, nDom)
		for i := range logs {
			l := NewLoop()
			tickLog(l, seed, i, fan, &logs[i])
			for _, h := range horizons {
				l.Run(h)
			}
		}
		return logs
	}
	for _, procs := range []int{1, 8} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs%d/parallel=%v", procs, parallel), func(t *testing.T) {
				want := bare(parallel)
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				c := NewCoordinator(200 * Microsecond)
				got := make([][]string, nDom)
				doms := make([]*Domain, nDom)
				for i := range doms {
					doms[i] = c.NewDomain(fmt.Sprintf("d%d", i))
					tickLog(doms[i].Loop, seed, i, parallel, &got[i])
				}
				for k, h := range horizons {
					c.Run(h)
					if c.Rounds() != int64(k+1) {
						t.Fatalf("after Run(%v), %d: %d rounds, want one per call", h, k+1, c.Rounds())
					}
					for _, d := range doms {
						if d.Loop.Now() != h {
							t.Fatalf("domain %s at %v after Run(%v)", d.Name(), d.Loop.Now(), h)
						}
					}
				}
				for i := range got {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Errorf("domain %d fired\n%v\nbare loop fired\n%v", i, got[i], want[i])
					}
				}
			})
		}
	}

	c := NewCoordinator(0)
	a, b := c.NewDomain("a"), c.NewDomain("b")
	c.Run(Time(Millisecond))
	defer func() {
		if recover() == nil {
			t.Error("Connect on a zero-lookahead coordinator did not panic")
		}
	}()
	c.Connect(a, b, Millisecond)
}
