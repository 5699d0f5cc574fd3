package core

import (
	"io"

	"wgtt/internal/deploy"
	"wgtt/internal/trace"
)

// This file exposes the per-segment switch-protocol recorders at the
// network level: their counts for the run summaries, shard access for
// the serve layer, the stitched ring (Config.FlightRecorder) for
// wgtt-sim, and the network-wide anomaly triggers that need
// cross-controller state (the per-handoff latency band lives inside the
// controller, which sees each ack).

// FlightRecorder returns segment i's recorder; nil only when the
// segment runs a baseline plane or i is out of range. In a partitioned
// run, recorders of segments this process does not own stay empty —
// their domains never execute here.
func (n *Network) FlightRecorder(i int) *trace.Recorder {
	if i < 0 || i >= len(n.recs) {
		return nil
	}
	return n.recs[i]
}

// ProtocolCount sums op's count at every segment's controller (node -1):
// switches issued or acked, clients exported or imported, and so on.
func (n *Network) ProtocolCount(op trace.Op) int {
	total := 0
	for _, r := range n.recs {
		total += r.Count(-1, op)
	}
	return total
}

// FlightRecords stitches every local shard into one deterministic
// timeline (see trace.Stitch). Call at quiescence (between Run calls).
func (n *Network) FlightRecords() []trace.Record {
	shards := make([][]trace.Record, 0, len(n.recs))
	for _, r := range n.recs {
		if r.Len() > 0 {
			shards = append(shards, r.Records())
		}
	}
	return trace.Stitch(shards...)
}

// FlightAnomalies concatenates every shard's noted anomalies in segment
// order.
func (n *Network) FlightAnomalies() []trace.Anomaly {
	var out []trace.Anomaly
	for _, r := range n.recs {
		out = append(out, r.Anomalies()...)
	}
	return out
}

// WriteChromeTrace renders the stitched local timeline as Chrome
// trace_event JSON (Perfetto-loadable).
func (n *Network) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChrome(w, n.FlightRecords())
}

// noteUnownedSpike checks every live controller's unowned-client count
// against Config.UnownedSpike and notes an anomaly on the segment's
// recorder. Called at Run/RunPartitioned boundaries (quiescent, so the
// cross-goroutine reads are ordered by the coordinator barrier). owned
// restricts the check to this process's domains in a partitioned run —
// remote controllers hold construction-time state and would read as
// spikes; nil means every domain ran locally.
func (n *Network) noteUnownedSpike(owned map[string]bool) {
	if n.Cfg.UnownedSpike <= 0 || n.Cfg.FlightRecorder <= 0 {
		return // anomalies need a ring
	}
	for i, s := range n.Deploy.Segments {
		p, ok := s.Plane.(*deploy.WGTTPlane)
		if !ok {
			continue
		}
		dom := n.segs[i].dom
		if owned != nil && !owned[dom.Name()] {
			continue
		}
		if u := p.Ctrl.UnownedClients(); u > n.Cfg.UnownedSpike {
			n.recs[i].Anomaly(trace.Anomaly{At: dom.Loop.Now(), Kind: trace.AnomalyUnowned, Value: float64(u)})
		}
	}
}
