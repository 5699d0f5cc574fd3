package wgtt

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// TestScaleCellDeterministic pins the scale grid's regression contract:
// a cell's per-flow goodput is a pure function of the seed, so
// TestScaleCellPins can demand exact Mbps equality with BENCH_scale.json.
func TestScaleCellDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1 s two-segment rides")
	}
	a := RunScaleCell(1, 2, 4, 1*Second)
	b := RunScaleCell(1, 2, 4, 1*Second)
	if a.Mbps != b.Mbps {
		t.Errorf("same seed, different goodput: %v vs %v", a.Mbps, b.Mbps)
	}
	if a.Mbps <= 0 {
		t.Errorf("no goodput in scale cell: %+v", a)
	}
	if a.Flows != 4 || a.Clients != 4 || a.Segments != 2 {
		t.Errorf("cell shape wrong: %+v", a)
	}
}

// scaleMallocsSlack is how far a scale cell's heap allocation count may
// rise above its BENCH_scale.json row (map growth and GC internals
// wobble; the datapath does not).
const scaleMallocsSlack = 1.30

// TestScaleCellPins is the scale gate: it re-rides the grid's small
// cells (1 and 8 segments × 2 and 64 clients, seed 1, 2 simulated
// seconds) and holds each to its row in BENCH_scale.json. Per-flow Mbps
// is seed-deterministic, so it must match to 1e-6; the allocation count
// may exceed the row's by at most 30%. A failure logs the measured cells
// as JSON rows: re-pinning is copying them over the file's rows.
//
// The cells count the process's allocations, so the test must not call
// t.Parallel: parallel tests wait until it has returned.
func TestScaleCellPins(t *testing.T) {
	if testing.Short() {
		t.Skip("four 2 s scale cells, up to 64 clients on 64 APs")
	}
	data, err := os.ReadFile("BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned []ScaleCell
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("BENCH_scale.json: %v", err)
	}
	var measured []ScaleCell
	for _, segments := range []int{1, 8} {
		for _, clients := range []int{2, 64} {
			c := RunScaleCell(1, segments, clients, 2*Second)
			measured = append(measured, c)
			i := slices.IndexFunc(pinned, func(p ScaleCell) bool {
				return p.Segments == c.Segments && p.Clients == c.Clients && p.SimSeconds == c.SimSeconds
			})
			if i < 0 {
				t.Errorf("%dx%d: no matching row in BENCH_scale.json", segments, clients)
				continue
			}
			p := pinned[i]
			if math.Abs(c.Mbps-p.Mbps) > 1e-6*math.Max(1, math.Abs(p.Mbps)) {
				t.Errorf("%dx%d: Mbps %.9f != pinned %.9f", segments, clients, c.Mbps, p.Mbps)
			}
			if float64(c.Mallocs) > float64(p.Mallocs)*scaleMallocsSlack {
				t.Errorf("%dx%d: %d mallocs > pinned %d +%.0f%%",
					segments, clients, c.Mallocs, p.Mallocs, 100*(scaleMallocsSlack-1))
			}
			t.Logf("%dx%d: %.3f Mbps, %d mallocs (pinned %d), %v wall",
				segments, clients, c.Mbps, c.Mallocs, p.Mallocs, time.Duration(c.WallNs))
		}
	}
	if t.Failed() {
		rows, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("measured cells:\n%s", rows)
	}
}
