package wgtt

import (
	"fmt"
	"strings"

	"wgtt/internal/core"
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

// CorridorMMWave rides the corridor of CorridorThroughput (two
// following clients at 25 mph across three 4-AP segments, saturating
// UDP downlink) on one loop over the mmWave picocell backend, with
// telemetry on. The dense cells make the switch rate the
// dominant dynamic: at 25 mph a client crosses a 7.5 m pitch every
// ~0.67 s, so the ride asserts WGTT's rapid switching well beyond the
// 2.4 GHz testbed's pace.
func CorridorMMWave(opt Options) CorridorMMWaveResult {
	r := corridorSetup(Options{Seed: opt.Seed, Mutate: func(c *Config) {
		c.ChannelBackend = "mmwave60g"
		c.Telemetry = true
		if opt.Mutate != nil {
			opt.Mutate(c)
		}
	}}, core.SingleLoop, 3, 0)
	n := r.Net
	n.Run(r.Dur)
	now := n.Loop.Now()

	res := CorridorMMWaveResult{CorridorResult: corridorResult(r), CellRadiusM: r.Cfg.MMWave.CellRadiusM}
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
		res.HandoffsPerMinute = float64(res.Handoffs) / minutes / float64(len(res.PerClientMbps))
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
