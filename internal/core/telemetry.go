package core

import (
	"fmt"

	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// This file wires the telemetry registry (Config.Telemetry) into the
// network's execution domains. The wired server's domain records into
// the registry's root shard; every other domain records into a shard of
// its own, touched only by that domain's goroutine. Segment scopes are
// views of their domain's shard. Snapshot merges the shards at
// quiescence (the per-round coordinator barrier is the happens-before
// edge that makes the plain counters visible).

// initTelemetry builds the registry. Each domain samples its series with
// its own 100 ms ticker, scheduled before any plane arms a timer; all
// tick on the same absolute grid, so serial and parallel rounds see
// identical event schedules and stay bit-identical. The sync-round
// metrics exist only where mailboxes do, in the split shape.
func (n *Network) initTelemetry(split bool) {
	n.tel = telemetry.NewRegistry()
	n.telRoot = n.tel.Scope("server")
	for i, sd := range n.segs {
		name := fmt.Sprintf("seg%d", i)
		if sd.dom == n.server {
			n.telSegs = append(n.telSegs, n.tel.Scope(name))
			continue
		}
		sc := n.tel.NewShard(name)
		n.telSegs = append(n.telSegs, sc)
		n.domainTelemetry(sc, sd.dom, split)
	}
	n.serverGauges()
	if split {
		n.telRoot.GaugeFunc("coord_rounds", func() float64 { return float64(n.Coord.Rounds()) })
	}
	n.domainTelemetry(n.telRoot, n.server, split)
}

// domainTelemetry exposes one domain's loop occupancy under sc, with
// the sync-round view when it has mailboxes, and arms its sampler.
func (n *Network) domainTelemetry(sc telemetry.Scope, dom *sim.Domain, mailboxes bool) {
	n.loopGauges(sc, dom.Loop)
	if mailboxes {
		n.domainIntrospection(sc, dom)
	}
	scheduleSampler(dom.Loop, sc)
}

// domainIntrospection exposes the sync-round view from inside one
// domain: the depth of its outgoing cross-domain envelope queue and how
// much lookahead slack its local schedule has, sampled on the 100 ms
// series grid. Both read only virtual-schedule state — never wall
// clock — so serial, parallel, and partitioned runs sample identical
// values and the merged snapshots stay bit-identical.
func (n *Network) domainIntrospection(sc telemetry.Scope, dom *sim.Domain) {
	loop := dom.Loop
	la := n.Coord.Lookahead()
	sc.Series("envelope_queue_100ms", func() float64 {
		return float64(n.Coord.PendingEnvelopesFrom(dom))
	})
	// Slack = how long the domain could idle before its next local
	// event, capped at the sync horizon (a domain with no work for the
	// rest of the round reports the full lookahead).
	sc.Series("lookahead_slack_100ms", func() float64 {
		slack := la
		if next, ok := loop.NextEventAt(); ok {
			if d := next.Sub(loop.Now()); d < slack {
				slack = d
			}
		}
		return float64(slack) / float64(sim.Millisecond)
	})
}

// loopGauges exposes one event loop's occupancy under sc.
func (n *Network) loopGauges(sc telemetry.Scope, loop *sim.Loop) {
	sc.GaugeFunc("loop_events", func() float64 { return float64(loop.Executed()) })
	sc.GaugeFunc("loop_pending", func() float64 { return float64(loop.Pending()) })
	sc.Series("loop_events_100ms", func() float64 { return float64(loop.Executed()) })
}

// serverGauges exposes the wired server's cross-segment state.
func (n *Network) serverGauges() {
	n.telRoot.GaugeFunc("clients", func() float64 { return float64(len(n.Clients)) })
	n.telRoot.GaugeFunc("server_duplicates", func() float64 { return float64(n.ServerDuplicates) })
	n.unownedGauge(n.telRoot)
}

// clientGauges exposes one client's receive-side state under its home
// segment's scope. GaugeFuncs are evaluated only at Snapshot time
// (quiescent), so a client that later migrates to another domain cannot
// race its old segment's sampler.
func (n *Network) clientGauges(seg, id int) {
	cl := n.Clients[id].Client
	sc := n.segTel(seg).Sub(fmt.Sprintf("client%d", id))
	sc.GaugeFunc("rx_mpdus", func() float64 { return float64(cl.RxMPDUs) })
	sc.GaugeFunc("rx_bytes", func() float64 { return float64(cl.RxBytes) })
	sc.GaugeFunc("rx_dups", func() float64 { return float64(cl.RxDuplicates) })
	sc.GaugeFunc("uplink_ppdus", func() float64 { return float64(cl.UplinkPPDUs) })
}

// scheduleSampler arms a domain's 100 ms series sampler. The ticks are
// read-only (they copy current values into the ring buffers), so they
// perturb neither the RNG streams nor any other event's ordering.
func scheduleSampler(loop *sim.Loop, sc telemetry.Scope) {
	var tick func()
	tick = func() {
		sc.Sample(loop.Now())
		loop.After(telemetry.SamplePeriod, tick)
	}
	loop.After(telemetry.SamplePeriod, tick)
}

// segTel returns segment i's telemetry scope; the zero (disabled) scope
// when Config.Telemetry is off.
func (n *Network) segTel(i int) telemetry.Scope {
	if n.tel == nil {
		return telemetry.Scope{}
	}
	return n.telSegs[i]
}

// TelemetryScope exposes a root-shard scope under prefix for callers
// that attach their own metrics (workload endpoints at the wired
// server). The zero scope when telemetry is disabled.
func (n *Network) TelemetryScope(prefix string) telemetry.Scope {
	if n.tel == nil {
		return telemetry.Scope{}
	}
	return n.tel.Scope(prefix)
}

// TelemetryEnabled reports whether the network records metrics.
func (n *Network) TelemetryEnabled() bool { return n.tel != nil }

// MetricsSnapshot exports every metric at the current virtual time.
// Call it only while the simulation is quiescent (between Run calls);
// returns nil when Config.Telemetry is off.
func (n *Network) MetricsSnapshot() *telemetry.Snapshot {
	if n.tel == nil {
		return nil
	}
	return n.tel.Snapshot(n.Coord.Now())
}
