package wgtt

import (
	"fmt"
	"strings"

	"wgtt/internal/trace"
)

// CorridorMMWaveResult is the picocell corridor: the same three-segment
// ride as CorridorThroughput, but over the "mmwave60g" channel backend —
// 60 GHz steered-beam APs with a hard cell-radius cap and deterministic
// blockage — with telemetry on, so the handoff-rate and switch-time
// distribution come out alongside the goodput.
type CorridorMMWaveResult struct {
	CorridorResult
	CellRadiusM float64
	// Handoffs counts completed handoff spans across all segments;
	// HandoffsPerMinute normalizes per client per ride minute.
	Handoffs          int64
	HandoffsPerMinute float64
	// HandoffP50Ms / HandoffP90Ms are quantiles of the issue→ack switch
	// time, merged across segments (the paper's 17–21 ms band).
	HandoffP50Ms float64
	HandoffP90Ms float64
	// Controller switch scoreboard.
	SwitchesIssued int
	SwitchesAcked  int
}

// CorridorMMWave rides two following clients at 25 mph across a
// three-segment mmWave picocell corridor (4 APs per segment) under
// saturating UDP downlink. The dense cells make the switch rate the
// dominant dynamic: at 25 mph a client crosses a 7.5 m pitch every
// ~0.67 s, so the ride asserts WGTT's rapid switching well beyond the
// 2.4 GHz testbed's pace.
func CorridorMMWave(opt Options) CorridorMMWaveResult {
	const (
		segments = 3
		apsPer   = 4
		clients  = 2
		mph      = 25.0
	)
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = opt.Seed
	cfg.ChannelBackend = "mmwave60g"
	cfg.Telemetry = true
	for i := 0; i < segments; i++ {
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: apsPer})
	}
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	n := NewNetwork(cfg)
	_, dur := driveAcross(&cfg, mph)
	lo, _ := cfg.RoadSpanX()
	var meters []*throughput
	for _, traj := range Scenario(Following, clients, lo-5, 0, mph) {
		c := n.AddClient(traj)
		f := NewUDPDownlink(n, c, offeredUDPMbps)
		startAfterWarmup(n, f.Start)
		meters = append(meters, f.Meter)
	}
	n.Run(dur)
	now := n.Loop.Now()

	res := CorridorMMWaveResult{
		CorridorResult: CorridorResult{
			Segments: segments, APsPerSegment: apsPer, SpeedMPH: mph,
		},
		CellRadiusM: cfg.MMWave.CellRadiusM,
	}
	for _, m := range meters {
		res.PerClientMbps = append(res.PerClientMbps, m.MeanMbps(now))
	}
	res.MeanMbps = mean(res.PerClientMbps)
	res.SwitchesIssued = n.ProtocolCount(trace.OpIssue)
	res.SwitchesAcked = n.ProtocolCount(trace.OpAck)
	if snap := n.MetricsSnapshot(); snap != nil {
		for _, sp := range snap.Spans {
			if sp.Name == "handoff" || strings.HasSuffix(sp.Name, "/handoff") {
				res.Handoffs += sp.Completed
			}
		}
		if h, ok := snap.MergeHistograms("handoff/total_ms"); ok {
			res.HandoffP50Ms = h.Quantile(0.5)
			res.HandoffP90Ms = h.Quantile(0.9)
		}
	}
	if minutes := now.Seconds() / 60; minutes > 0 {
		res.HandoffsPerMinute = float64(res.Handoffs) / minutes / clients
	}
	return res
}

func (r CorridorMMWaveResult) String() string {
	rows := make([][]string, 0, len(r.PerClientMbps)+1)
	for i, v := range r.PerClientMbps {
		rows = append(rows, []string{fmt.Sprintf("client %d", i+1), f1(v)})
	}
	rows = append(rows, []string{"mean", f1(r.MeanMbps)})
	head := fmt.Sprintf("mmWave corridor — %d segments × %d APs, %g mph, %g m cells, UDP downlink\n",
		r.Segments, r.APsPerSegment, r.SpeedMPH, r.CellRadiusM)
	tail := fmt.Sprintf("\nhandoffs: %d completed (%.1f/min/client), switch time p50 %.1f ms p90 %.1f ms\nswitches: %d issued, %d acked\n",
		r.Handoffs, r.HandoffsPerMinute, r.HandoffP50Ms, r.HandoffP90Ms,
		r.SwitchesIssued, r.SwitchesAcked)
	return head + fmtTable([]string{"", "Mbit/s"}, rows) + tail
}
