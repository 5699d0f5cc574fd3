package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// sparseMesh is a randomized partitioned model shaped like a long corridor
// with little traffic: many domains, most of them idle in most rounds,
// each linked by mailboxes to a few random peers. A domain's tick fires
// after a short or a long random gap, logs an RNG draw (with fan, also a
// sum fanned out over 16 items), and sometimes posts to a peer; a
// delivery logs itself and sometimes replies. Every action appends to
// the acting domain's own log.
//
// Local ticks land on whole microseconds and a delivery from domain s on
// the microsecond plus 1+s nanoseconds, so within one domain two events
// share a timestamp only when both are local or both crossed the same
// mailbox. Their order then never depends on where round boundaries fall,
// which makes the logs invariant under slicing Run as well as under the
// goroutines the fan-outs run on.
type sparseMesh struct {
	c     *Coordinator
	doms  []*Domain
	logs  [][]string
	until Time
	// probe, when set, runs at every tick, before its fan-out.
	probe func()
}

const sparseLookahead = 200 * Microsecond

func newSparseMesh(seed int64, nDom int, fan bool) *sparseMesh {
	m := &sparseMesh{
		c:     NewCoordinator(sparseLookahead),
		logs:  make([][]string, nDom),
		until: Time(300 * Millisecond),
	}
	for i := 0; i < nDom; i++ {
		m.doms = append(m.doms, m.c.NewDomain(fmt.Sprintf("d%d", i)))
	}
	wiring := NewRNG(seed).Fork("wiring")
	peers := make([][]*Mailbox, nDom)
	for i := range m.doms {
		// Three distinct peers, so no two mailboxes share a direction.
		for _, k := range wiring.Perm(nDom - 1)[:min(3, nDom-1)] {
			j := (i + 1 + k) % nDom
			delay := sparseLookahead + Duration(wiring.Intn(4))*100*Microsecond
			peers[i] = append(peers[i], m.c.Connect(m.doms[i], m.doms[j], delay))
		}
	}
	for i, d := range m.doms {
		i, d := i, d
		rng := NewRNG(seed).Fork(fmt.Sprintf("dom%d", i))
		// arrival is the delivery time of a post from domain i at least
		// delay after now: on a later microsecond, tagged with 1+i ns.
		arrival := func(delay Duration) Time {
			us := int64(d.Loop.Now())/1000 + int64(delay/Microsecond) + 1 + int64(rng.Intn(400))
			return Time(us*1000 + int64(1+i))
		}
		var post func(val int)
		post = func(val int) {
			mb := peers[i][rng.Intn(len(peers[i]))]
			to := mb.to.id
			mb.PostFunc(arrival(mb.minDelay), func() {
				m.logs[to] = append(m.logs[to], fmt.Sprintf("recv %d from d%d @%d", val, i, m.doms[to].Loop.Now()))
				if val%4 == 0 {
					back := peers[to][0]
					back.PostFunc(Time(int64(m.doms[to].Loop.Now())/1000*1000+int64(back.minDelay)+1000+int64(1+to)),
						func() {
							dst := back.to.id
							m.logs[dst] = append(m.logs[dst], fmt.Sprintf("reply %d from d%d @%d", val, to, m.doms[dst].Loop.Now()))
						})
				}
			})
		}
		scratch := make([]int, 16)
		fires := 0
		var tick func()
		tick = func() {
			fires++
			if m.probe != nil {
				m.probe()
			}
			r := rng.Intn(1000)
			entry := fmt.Sprintf("tick%d @%d r%d", fires, d.Loop.Now(), r)
			if fan {
				entry += fmt.Sprintf(" f%d", fanSum(d.Loop, scratch, r))
			}
			m.logs[i] = append(m.logs[i], entry)
			if r%3 == 0 {
				post(fires*nDom + i)
			}
			gapUs := 50 + rng.Intn(450) // busy stretch
			if rng.Intn(3) > 0 {
				gapUs = 2000 + rng.Intn(40000) // mostly idle
			}
			d.Loop.At(Time((int64(d.Loop.Now())/1000+int64(gapUs))*1000), tick)
		}
		d.Loop.At(Time(int64(10+rng.Intn(5000))*1000), tick)
	}
	return m
}

// run advances the mesh to its horizon, stopping first at each cut.
func (m *sparseMesh) run(t *testing.T, cuts []Time) [][]string {
	t.Helper()
	for _, cut := range cuts {
		m.c.Run(cut)
	}
	m.c.Run(m.until)
	for _, d := range m.doms {
		if d.Loop.Now() != m.until {
			t.Fatalf("domain %s stopped at %v, want %v", d.Name(), d.Loop.Now(), m.until)
		}
	}
	return m.logs
}

// withProcs runs fn with GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func diffLogs(t *testing.T, label string, want, got [][]string) {
	t.Helper()
	for i := range want {
		if !slices.Equal(want[i], got[i]) {
			n := min(len(want[i]), len(got[i]))
			for k := 0; k < n; k++ {
				if want[i][k] != got[i][k] {
					t.Fatalf("%s: domain d%d diverges at entry %d:\n want: %s\n  got: %s",
						label, i, k, want[i][k], got[i][k])
				}
			}
			t.Fatalf("%s: domain d%d log length %d, want %d", label, i, len(got[i]), len(want[i]))
		}
	}
}

// TestCoordinatorSparseParallelMatchesSerial runs a sparse 40-domain
// mesh whose ticks fan out at GOMAXPROCS 2 and 8 — in parallel on one
// helper and on seven — and requires every domain's event log to equal
// the run at GOMAXPROCS 1, where every fan-out runs serially, inline.
func TestCoordinatorSparseParallelMatchesSerial(t *testing.T) {
	const nDom = 40
	for seed := int64(1); seed <= 3; seed++ {
		var serial [][]string
		withProcs(1, func() { serial = newSparseMesh(seed, nDom, true).run(t, nil) })
		entries := 0
		for _, l := range serial {
			entries += len(l)
		}
		if entries < 10*nDom {
			t.Fatalf("seed %d: only %d log entries — harness too quiet", seed, entries)
		}
		for _, procs := range []int{2, 8} {
			withProcs(procs, func() {
				par := newSparseMesh(seed, nDom, true).run(t, nil)
				diffLogs(t, fmt.Sprintf("seed %d GOMAXPROCS=%d", seed, procs), serial, par)
			})
		}
	}
}

// TestCoordinatorSlicedRunMatchesOneRun cuts Run into many calls at
// random horizons — each call starting and stopping its own fan-out
// helpers — and requires the logs of one uninterrupted call.
func TestCoordinatorSlicedRunMatchesOneRun(t *testing.T) {
	const nDom = 24
	for seed := int64(1); seed <= 2; seed++ {
		whole := newSparseMesh(seed, nDom, true).run(t, nil)
		rng := NewRNG(seed).Fork("cuts")
		var cuts []Time
		for at := Time(0); ; {
			at = at.Add(Duration(1+rng.Intn(9000)) * Microsecond)
			if at >= Time(300*Millisecond) {
				break
			}
			cuts = append(cuts, at)
		}
		withProcs(4, func() {
			sliced := newSparseMesh(seed, nDom, true).run(t, cuts)
			diffLogs(t, fmt.Sprintf("seed %d %d slices", seed, len(cuts)+1), whole, sliced)
		})
	}
}

// TestCoordinatorHelpersLiveOnlyInRun checks when fan-out helpers live
// during a sparse mesh's Run: none before its first fan-out, then
// GOMAXPROCS−1 of them (none at GOMAXPROCS=1) until Run returns, and
// none at all in a Run whose domains never fan out.
func TestCoordinatorHelpersLiveOnlyInRun(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, fan := range []bool{true, false} {
			withProcs(procs, func() {
				m := newSparseMesh(1, 8, fan)
				var seen []int
				m.probe = func() { seen = append(seen, int(m.c.helpers.Load())) }
				m.run(t, nil)
				want := 0
				if fan {
					want = procs - 1
				}
				if len(seen) < 2 || seen[0] != 0 {
					t.Fatalf("GOMAXPROCS=%d fan=%v: helpers %v at the first ticks, want none before the first fan-out",
						procs, fan, seen[:min(2, len(seen))])
				}
				for k, n := range seen[1:] {
					if n != want {
						t.Fatalf("GOMAXPROCS=%d fan=%v: %d helpers at tick %d, want %d", procs, fan, n, k+2, want)
					}
				}
				if n := m.c.helpers.Load(); n != 0 {
					t.Errorf("GOMAXPROCS=%d fan=%v: %d helpers outlived Run", procs, fan, n)
				}
			})
		}
	}
}

// TestCoordinatorWaitStatsEveryRound pins WaitStats' definition under
// active-set dispatch: every domain records every round, and a domain
// that never has an event due waits each whole round, so no domain can
// out-wait it.
func TestCoordinatorWaitStatsEveryRound(t *testing.T) {
	withProcs(2, func() {
		m := newSparseMesh(2, 12, true)
		m.c.NewDomain("never") // no events, no mailboxes: idle in every round
		m.c.EnableWaitStats()
		m.run(t, []Time{Time(40 * Millisecond), Time(41 * Millisecond)})
		stats := m.c.WaitStats()
		if len(stats) != 13 {
			t.Fatalf("%d wait stats, want 13", len(stats))
		}
		if m.c.Rounds() == 0 {
			t.Fatal("no rounds ran")
		}
		idle := stats[12]
		for _, st := range stats {
			if st.Rounds != m.c.Rounds() {
				t.Errorf("domain %s recorded %d rounds, coordinator ran %d", st.Domain, st.Rounds, m.c.Rounds())
			}
			if st.SumNs > idle.SumNs || st.MaxNs > idle.MaxNs {
				t.Errorf("domain %s waited %d ns (max %d), more than the idle domain's %d (max %d)",
					st.Domain, st.SumNs, st.MaxNs, idle.SumNs, idle.MaxNs)
			}
		}
	})
}
