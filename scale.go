package wgtt

import (
	"runtime"
	"time"

	"wgtt/internal/scenario"
)

// This file is the city-scale datapath benchmark: a clients × segments
// grid over one shared-medium deployment, measuring how simulation cost
// scales as the node population grows. It exists to quantify the spatial
// audibility index — with hundreds of APs and a thousand registered
// clients on one medium, per-PPDU delivery cost is what dominates. Its
// cells are checked in as BENCH_scale.json; TestScaleCellPins re-rides
// the small ones against that file.

// ScaleCell is one (segments × clients) measurement of the scale grid.
type ScaleCell struct {
	// Segments and Clients identify the cell; each segment carries
	// eight APs, all on one shared radio medium (the single-loop path).
	Segments int `json:"segments"`
	Clients  int `json:"clients"`
	// Flows is how many of the clients carried a saturating UDP
	// downlink (the rest are associated and hear beacons — pure
	// datapath population).
	Flows int `json:"flows"`
	// SimSeconds is the simulated duration of the cell.
	SimSeconds float64 `json:"sim_seconds"`
	// Mbps is the mean per-flow goodput — deterministic for a given
	// seed, so it doubles as a cross-machine regression signature.
	Mbps float64 `json:"mbps"`
	// WallNs is the host wall-clock cost of the Run call; Mallocs the
	// heap allocation count across it (runtime.MemStats.Mallocs delta).
	// Both are machine-dependent, unlike Mbps.
	WallNs  int64  `json:"wall_ns"`
	Mallocs uint64 `json:"mallocs"`
}

// scaleFlowCap bounds the number of active flows per cell so the offered
// load stays constant while the registered population scales.
const scaleFlowCap = 16

// RunScaleCell builds and rides one cell of the scale grid.
func RunScaleCell(seed int64, segments, clients int, dur Duration) ScaleCell {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = seed
	for i := 1; i < segments; i++ {
		// Multi-segment: eight APs per segment, one shared medium.
		if len(cfg.Segments) == 0 {
			cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: cfg.NumAPs})
		}
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: cfg.NumAPs})
	}
	// Clients spread across the whole corridor, driving with traffic;
	// lanes alternate so co-located cars do not stack. Only the first
	// scaleFlowCap carry a flow.
	lo, hi := cfg.RoadSpanX()
	span := hi - lo + 2*scenario.DefaultLeadIn
	trajs := make([]Trajectory, clients)
	for i := range trajs {
		x := lo - scenario.DefaultLeadIn + span*float64(i)/float64(clients)
		trajs[i] = Drive(x, float64(i%2)*-3, 25)
	}
	flows := min(clients, scaleFlowCap)
	p := downlinkPlan(cfg, dur, scenario.WorkloadUDP, scenario.DefaultRateMbps, trajs...)
	for i := flows; i < clients; i++ {
		p.Clients[i].Workload = scenario.WorkloadNone
	}
	r := BuildScenarioRun(p)
	n := r.Net

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n.Run(dur)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	cell := ScaleCell{
		Segments:   segments,
		Clients:    clients,
		Flows:      flows,
		SimSeconds: Duration(dur).Seconds(),
		WallNs:     wall.Nanoseconds(),
		Mallocs:    m1.Mallocs - m0.Mallocs,
	}
	cell.Mbps = mean(r.goodputs()[:flows])
	return cell
}
