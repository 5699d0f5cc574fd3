package channel

import (
	"math/rand"
	"sync"
	"testing"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// testModel builds the named backend from its test configuration.
func testModel(tb testing.TB, name string) Model {
	cfg := wifiCfg()
	if name == "mmwave60g" {
		cfg = mmCfg()
	}
	m, err := New(name, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// linkQuery is one (time, position) at which a link is evaluated.
type linkQuery struct {
	now sim.Time
	pos rf.Position
}

// linkQueries returns n random queries within 35 m of apPos over the
// first 20 s: inside and beyond the mmWave cell radius, across blockage
// intervals.
func linkQueries(apPos rf.Position, n int, seed int64) []linkQuery {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]linkQuery, n)
	for i := range qs {
		qs[i] = linkQuery{
			now: sim.Time(rng.Int63n(int64(20 * sim.Second))),
			pos: rf.Position{X: apPos.X + 70*rng.Float64() - 35, Y: apPos.Y - 4*rng.Float64()},
		}
	}
	return qs
}

// realized returns a link whose every realization was drawn right after
// construction, at an in-cell query: the reference a link evaluated in
// any other order must match.
func realized(m Model, apPos rf.Position, seed int64) Link {
	l := m.NewLink(apPos, sim.NewRNG(seed).Fork("link"))
	var dst [rf.NumSubcarriers]float64
	l.SubcarrierSNRsDB(0, rf.Position{X: apPos.X + 1, Y: apPos.Y - 2}, dst[:])
	return l
}

// TestLinkFirstUseOrder holds the lazy realization's bit-identity: for
// both backends, a link answers every method exactly as a link realized
// at construction from the same fork does, whichever method it is first
// asked — MeanSNRdB, FillSubcarrierSNRsDB, SubcarrierSNRsDB or SNRdB —
// and with DisableFading called before its first use.
func TestLinkFirstUseOrder(t *testing.T) {
	for _, name := range []string{"wifi5g", "mmwave60g"} {
		m := testModel(t, name)
		apPos := rf.Position{X: 10, Y: 3}
		for seed := int64(1); seed <= 3; seed++ {
			qs := linkQueries(apPos, 100, seed)
			for _, first := range []string{"MeanSNRdB", "FillSubcarrierSNRsDB", "SubcarrierSNRsDB", "SNRdB", "DisableFading"} {
				t.Run(name+"/"+first, func(t *testing.T) {
					ref := realized(m, apPos, seed)
					l := m.NewLink(apPos, sim.NewRNG(seed).Fork("link"))
					var a, b [rf.NumSubcarriers]float64
					q := qs[0]
					switch first {
					case "MeanSNRdB":
						l.MeanSNRdB(q.now, q.pos)
					case "FillSubcarrierSNRsDB":
						l.FillSubcarrierSNRsDB(q.now, q.pos, -3, a[:])
					case "SubcarrierSNRsDB":
						l.SubcarrierSNRsDB(q.now, q.pos, a[:])
					case "SNRdB":
						l.SNRdB(q.now, q.pos)
					case "DisableFading":
						l.DisableFading()
						ref.DisableFading()
					}
					for i, q := range qs {
						mean, want := l.MeanSNRdB(q.now, q.pos), ref.MeanSNRdB(q.now, q.pos)
						if mean != want {
							t.Fatalf("seed %d query %d %+v: MeanSNRdB %v, reference %v", seed, i, q, mean, want)
						}
						if got, want := l.SNRdB(q.now, q.pos), ref.SNRdB(q.now, q.pos); got != want {
							t.Fatalf("seed %d query %d %+v: SNRdB %v, reference %v", seed, i, q, got, want)
						}
						l.SubcarrierSNRsDB(q.now, q.pos, a[:])
						ref.SubcarrierSNRsDB(q.now, q.pos, b[:])
						if a != b {
							t.Fatalf("seed %d query %d %+v: SubcarrierSNRsDB differs from the reference", seed, i, q)
						}
						l.FillSubcarrierSNRsDB(q.now, q.pos, mean, a[:])
						if a != b {
							t.Fatalf("seed %d query %d %+v: FillSubcarrierSNRsDB differs from SubcarrierSNRsDB", seed, i, q)
						}
					}
				})
			}
		}
	}
}

// TestLinkConcurrentFirstUse races first uses: eight goroutines ask one
// fresh link its MeanSNRdB at once, as the medium's fan-out may sense a
// pair and its reverse together, and eight fill distinct fresh links at
// once, one link per receiver. Every answer must equal a link realized
// at construction. Run it under -race -count=10.
func TestLinkConcurrentFirstUse(t *testing.T) {
	const workers = 8
	for _, name := range []string{"wifi5g", "mmwave60g"} {
		m := testModel(t, name)
		t.Run(name, func(t *testing.T) {
			apPos := rf.Position{X: 10, Y: 3}
			q := linkQuery{now: sim.Time(3 * sim.Second), pos: rf.Position{X: 14, Y: 0.5}}

			shared := m.NewLink(apPos, sim.NewRNG(1).Fork("link"))
			wantMean := realized(m, apPos, 1).MeanSNRdB(q.now, q.pos)
			fresh := make([]Link, workers)
			want := make([][rf.NumSubcarriers]float64, workers)
			for i := range fresh {
				seed := int64(10 + i)
				fresh[i] = m.NewLink(apPos, sim.NewRNG(seed).Fork("link"))
				realized(m, apPos, seed).SubcarrierSNRsDB(q.now, q.pos, want[i][:])
			}

			start := make(chan struct{})
			means := make([]float64, workers)
			got := make([][rf.NumSubcarriers]float64, workers)
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					<-start
					means[i] = shared.MeanSNRdB(q.now, q.pos)
				}()
				go func() {
					defer wg.Done()
					<-start
					fresh[i].SubcarrierSNRsDB(q.now, q.pos, got[i][:])
				}()
			}
			close(start)
			wg.Wait()
			for i := 0; i < workers; i++ {
				if means[i] != wantMean {
					t.Errorf("goroutine %d: MeanSNRdB %v, reference %v", i, means[i], wantMean)
				}
				if got[i] != want[i] {
					t.Errorf("link %d: concurrent first fill differs from the reference", i)
				}
			}
		})
	}
}
