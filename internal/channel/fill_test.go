package channel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// floorFill is one floored fill a worker made: whether it filled, and
// what it wrote.
type floorFill struct {
	filled bool
	snrs   [rf.NumSubcarriers]float64
}

// TestFloorFillBothBackends checks FillSubcarrierSNRsDB's floor on both
// backends, faded (wifi5g Rayleigh, mmwave60g Rician) and with fading
// disabled, over random links, queries and floors. A −Inf fill fills and
// equals SubcarrierSNRsDB; a floored fill that fills writes the −Inf
// fill's floats bit for bit; one that stops does so only when every
// value of the −Inf fill is below the floor. Half the floors sit within
// a few dB of the strongest subcarrier. Four goroutines fill the same
// fresh links at once, as the medium's fan-out does, so the links draw
// their realizations under contention; run it under -race.
func TestFloorFillBothBackends(t *testing.T) {
	const (
		links   = 6
		queries = 300
		workers = 4
	)
	apPos := rf.Position{X: 10, Y: 3}
	for _, name := range []string{"wifi5g", "mmwave60g"} {
		for _, fadeOff := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fadeOff=%v", name, fadeOff), func(t *testing.T) {
				m := testModel(t, name)
				qs := linkQueries(apPos, queries, 7)
				rng := rand.New(rand.NewSource(int64(len(name))))
				refs := make([]Link, links)
				shared := make([]Link, links)
				means := make([][queries]float64, links)
				floors := make([][queries]float64, links)
				want := make([][queries][rf.NumSubcarriers]float64, links)
				for i := range refs {
					refs[i] = m.NewLink(apPos, sim.NewRNG(int64(i)).Fork("link"))
					shared[i] = m.NewLink(apPos, sim.NewRNG(int64(i)).Fork("link"))
					if fadeOff {
						refs[i].DisableFading()
						shared[i].DisableFading()
					}
					for j, q := range qs {
						mean := refs[i].MeanSNRdB(q.now, q.pos)
						w := &want[i][j]
						if !refs[i].FillSubcarrierSNRsDB(q.now, q.pos, mean, math.Inf(-1), w[:]) {
							t.Fatalf("link %d query %d: a −Inf fill did not fill", i, j)
						}
						var sub [rf.NumSubcarriers]float64
						refs[i].SubcarrierSNRsDB(q.now, q.pos, sub[:])
						if sub != *w {
							t.Fatalf("link %d query %d: the −Inf fill differs from SubcarrierSNRsDB", i, j)
						}
						top := math.Inf(-1)
						for _, v := range w {
							top = max(top, v)
						}
						means[i][j] = mean
						floors[i][j] = mean + rng.Float64()*50 - 30
						if j%2 == 0 {
							floors[i][j] = top + rng.Float64()*8 - 4
						}
					}
				}

				got := make([][queries]floorFill, links)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := w; j < queries; j += workers {
							for i, l := range shared {
								g := &got[i][j]
								g.filled = l.FillSubcarrierSNRsDB(qs[j].now, qs[j].pos, means[i][j], floors[i][j], g.snrs[:])
							}
						}
					}()
				}
				wg.Wait()

				var fills, stops int
				for i := range got {
					for j := range got[i] {
						g, w, floor := &got[i][j], &want[i][j], floors[i][j]
						if g.filled {
							fills++
							if g.snrs != *w {
								t.Fatalf("link %d query %d: the fill at floor %v differs from the −Inf fill", i, j, floor)
							}
							continue
						}
						stops++
						for k, v := range w {
							if v >= floor {
								t.Fatalf("link %d query %d: the fill stopped at floor %v, but subcarrier %d reads %v", i, j, floor, k, v)
							}
						}
					}
				}
				if fills < links*queries/5 || stops < links*queries/5 {
					t.Errorf("%d fills and %d stops — the floors exercise too little", fills, stops)
				}
			})
		}
	}
}

// TestFloorFillAllocatesNothing holds a realized link's floored fill,
// stopped or not, to zero allocations on both backends.
func TestFloorFillAllocatesNothing(t *testing.T) {
	for _, name := range []string{"wifi5g", "mmwave60g"} {
		apPos := rf.Position{X: 10, Y: 3}
		l := realized(testModel(t, name), apPos, 1)
		var dst [rf.NumSubcarriers]float64
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			i++
			pos := rf.Position{X: apPos.X + float64(i%97)*0.1, Y: 0.5}
			mean := l.MeanSNRdB(sim.Time(i), pos)
			l.FillSubcarrierSNRsDB(sim.Time(i), pos, mean, mean+float64(i%20)-10, dst[:])
		})
		if allocs != 0 {
			t.Errorf("%s: a floored fill allocates %v objects", name, allocs)
		}
	}
}
