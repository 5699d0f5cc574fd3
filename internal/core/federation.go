package core

import (
	"wgtt/internal/controller"
	"wgtt/internal/federation"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// This file wires the federation layer (Config.Federation) into both
// construction paths: one immutable Topology shared by every segment,
// and one federation.Node per segment living on that segment's loop.

// extraTrunks resolves the non-adjacent trunk pairs: the configured
// bypasses plus the ring-closure trunk between the first and last
// segments. Nil when federation is disabled.
func (c *Config) extraTrunks() [][2]int {
	if !c.Federation.Enabled {
		return nil
	}
	extra := append([][2]int(nil), c.Federation.ExtraTrunks...)
	if c.Federation.Ring {
		extra = append(extra, [2]int{0, len(c.segmentGeoms()) - 1})
	}
	return extra
}

// federationTopology builds the shared trunk graph, mirroring the
// deploy-level outage schedule so the router steers around downed
// trunks. Nil when federation is disabled.
func (c *Config) federationTopology() *federation.Topology {
	if !c.Federation.Enabled {
		return nil
	}
	var outs []federation.EdgeOutage
	for _, o := range c.Trunk.Faults.Outages {
		outs = append(outs, federation.EdgeOutage{A: o.A, B: o.B, Start: o.Start, End: o.End})
	}
	return federation.NewTopology(len(c.segmentGeoms()), c.extraTrunks(), outs)
}

// attachFederation builds segment seg's federation node on its loop and
// binds it to the segment controller. No-op when topo is nil.
func (n *Network) attachFederation(topo *federation.Topology, seg int, loop *sim.Loop, ctrl *controller.Controller) {
	if topo == nil {
		return
	}
	node := federation.NewNode(loop, seg, topo, n.Cfg.Federation)
	sc := n.segTel(seg)
	node.SetTelemetry(sc.Sub("fed"))
	sc.Spans("relocate", node.Relocations)
	ctrl.SetFederation(node)
}

// FederationNodes returns every segment's federation node in segment
// order; nil when federation is disabled.
func (n *Network) FederationNodes() []*federation.Node {
	var nodes []*federation.Node
	for _, c := range n.Controllers() {
		if f := c.Federation(); f != nil {
			nodes = append(nodes, f)
		}
	}
	return nodes
}

// Relocates sums completed directory re-locates across all segments.
func (n *Network) Relocates() int {
	total := 0
	for _, f := range n.FederationNodes() {
		total += f.Relocates
	}
	return total
}

// LostClients returns the ids of clients no controller currently owns —
// the acceptance invariant for fault-injected runs. Baseline clients
// (roamer-driven association) are never counted.
func (n *Network) LostClients() []int {
	ctrls := n.Controllers()
	var lost []int
	for id, c := range n.Clients {
		if c.Roamer != nil {
			continue
		}
		owned := false
		for _, ctrl := range ctrls {
			if ctrl.Owns(c.Addr) {
				owned = true
				break
			}
		}
		if !owned {
			lost = append(lost, id)
		}
	}
	return lost
}

// TrunkFaultDrops sums scheduled-outage and random-fault drops across
// every trunk direction.
func (n *Network) TrunkFaultDrops() (outage, random int64) {
	for _, t := range n.Deploy.Trunks {
		outage += int64(t.OutageDrops)
		random += int64(t.FaultDrops)
	}
	return outage, random
}

// unownedGauge exposes the lost-client count in the metrics snapshot
// (evaluated only at quiescence, so cross-domain reads cannot race).
func (n *Network) unownedGauge(sc telemetry.Scope) {
	sc.GaugeFunc("clients_unowned", func() float64 { return float64(len(n.LostClients())) })
	sc.GaugeFunc("relocates", func() float64 { return float64(n.Relocates()) })
}
