package core

import (
	"fmt"
	"strings"
	"testing"

	"wgtt/internal/deploy"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/transport"
)

// fedConfig builds a federated multi-segment WGTT corridor.
func fedConfig(seed int64, segs []deploy.SegmentSpec, ring bool, faults deploy.FaultSchedule) Config {
	cfg := DefaultConfig(WGTT)
	cfg.Seed = seed
	cfg.Segments = segs
	cfg.Federation.Enabled = true
	cfg.Federation.Ring = ring
	cfg.Trunk.Faults = faults
	return cfg
}

func fourSegs() []deploy.SegmentSpec {
	return []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
}

// attachDownlink wires a client-side UDP sink fed by a server-side CBR
// source (the parallel_test idiom: sink on the client's clock, source on
// the server loop).
func attachDownlink(n *Network, c *Client, port uint16, rateMbps float64) *transport.UDPSink {
	sink := transport.NewUDPSink(c.Client)
	c.Handle(port, func(p packet.Packet) { sink.Receive(p) })
	src := transport.NewUDPSource(n.Loop, n.SendFromServer,
		packet.ServerIP, c.IP, port-1, port, rateMbps, 1400)
	n.Loop.After(100*sim.Millisecond, src.Start)
	return sink
}

// TestFederationUTurnRelocates is the satellite-1 U-turn scenario: a
// client drives two segments up the corridor, turns around, and drives
// back. Without federation the original controller would keep serving a
// client it can no longer reach; with it, each reverse segment crossing
// re-locates the client through the directory. At the end the client
// must be attached and owned exactly once.
func TestFederationUTurnRelocates(t *testing.T) {
	cfg := fedConfig(1, fourSegs(), false, deploy.FaultSchedule{})
	n := MustNewNetwork(cfg)
	// 4×4 APs at 7.5 m pitch: segment i spans x ∈ [30i, 30i+22.5].
	traj := mobility.NewWaypoints([]mobility.Waypoint{
		{At: 0, Pos: pos(10, 0)},
		{At: 4 * sim.Second, Pos: pos(75, 0)}, // into segment 2
		{At: 9 * sim.Second, Pos: pos(12, 0)}, // U-turn back to segment 0
	})
	c := n.AddClient(traj)
	sink := attachDownlink(n, c, 9001, 10)
	n.Run(10 * sim.Second)

	if lost := n.LostClients(); len(lost) != 0 {
		t.Fatalf("lost clients after U-turn: %v", lost)
	}
	if got := n.Relocates(); got < 1 {
		t.Errorf("relocates = %d, want ≥ 1 (U-turn must re-locate through the directory)", got)
	}
	if owners := ownersOf(n, c); len(owners) != 1 {
		t.Errorf("controllers owning client = %v, want exactly one", owners)
	}
	if n.ServingAP(c.ID) < 0 {
		t.Error("client not attached to any AP after U-turn")
	}
	if sink.Bytes == 0 {
		t.Error("downlink delivered no bytes")
	}
}

// TestFederationCoverageGapRelocates drives a client across a 60 m
// coverage hole between two segments. The client goes dark mid-route;
// when it reappears in the far segment, that controller must claim it
// through the directory and resume the downlink.
func TestFederationCoverageGapRelocates(t *testing.T) {
	segs := []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4, Gap: 60}}
	cfg := fedConfig(1, segs, false, deploy.FaultSchedule{})
	n := MustNewNetwork(cfg)
	// Segment 0 spans [0, 22.5]; segment 1 starts at 82.5.
	c := n.AddClient(mobility.Drive(5, 0, 25)) // ≈11 m/s: crosses the gap around t≈5 s
	sink := attachDownlink(n, c, 9001, 10)

	var bytesBeforeGap int64
	n.Loop.At(sim.Time(2*sim.Second), func() { bytesBeforeGap = sink.Bytes })
	n.Run(10 * sim.Second)

	if lost := n.LostClients(); len(lost) != 0 {
		t.Fatalf("lost clients after coverage gap: %v", lost)
	}
	if owners := ownersOf(n, c); len(owners) != 1 || owners[0] != 1 {
		t.Errorf("controllers owning client = %v, want [1] (far side of the gap)", owners)
	}
	if sink.Bytes <= bytesBeforeGap {
		t.Errorf("downlink did not resume after the gap: %d bytes at 2 s, %d at end",
			bytesBeforeGap, sink.Bytes)
	}
	if got := n.Relocates(); got < 1 {
		t.Errorf("relocates = %d, want ≥ 1 (gap crossing must re-locate)", got)
	}
}

// TestTrunkFaultDropsWithoutTelemetry: the trunk drop counts come from
// the trunks themselves, so a faulted ride reports the same nonzero
// outage and random drops with telemetry off as with it on, and they
// match the telemetry counters.
func TestTrunkFaultDropsWithoutTelemetry(t *testing.T) {
	ride := func(telemetry bool) *Network {
		faults := deploy.FaultSchedule{
			Outages:   []deploy.Outage{{A: 1, B: 2, Start: 2 * sim.Second, End: 3500 * sim.Millisecond}},
			DropProb:  0.02,
			JitterMax: 40 * sim.Microsecond,
		}
		cfg := fedConfig(1, fourSegs(), false, faults)
		cfg.Telemetry = telemetry
		n := MustNewNetwork(cfg)
		attachDownlink(n, n.AddClient(mobility.Drive(-5, 0, 25)), 9001, 10)
		n.Run(6 * sim.Second)
		return n
	}
	off, on := ride(false), ride(true)
	outage, random := off.TrunkFaultDrops()
	if outage == 0 || random == 0 {
		t.Fatalf("telemetry off: trunk drops %d outage, %d random; want both nonzero", outage, random)
	}
	if o, r := on.TrunkFaultDrops(); o != outage || r != random {
		t.Errorf("telemetry on: %d outage, %d random; off: %d, %d", o, r, outage, random)
	}
	var metOutage, metRandom int64
	for _, c := range on.MetricsSnapshot().Counters {
		switch {
		case strings.HasSuffix(c.Name, "/trunk/outage_drops"):
			metOutage += c.Value
		case strings.HasSuffix(c.Name, "/trunk/fault_drops"):
			metRandom += c.Value
		}
	}
	if metOutage != outage || metRandom != random {
		t.Errorf("telemetry counters %d outage, %d random; trunks %d, %d", metOutage, metRandom, outage, random)
	}
}

// TestFederationTrunkOutageMidHandoff blacks out the only trunk exactly
// over the client's first segment crossing while a TCP download runs.
// The handoff RPCs must retry through the outage, the client must end
// re-attached, and TCP must keep delivering after the trunk returns.
func TestFederationTrunkOutageMidHandoff(t *testing.T) {
	faults := deploy.FaultSchedule{Outages: []deploy.Outage{
		{A: 0, B: 1, Start: 800 * sim.Millisecond, End: 1600 * sim.Millisecond},
	}}
	cfg := fedConfig(1, []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}, false, faults)
	n := MustNewNetwork(cfg)
	// Start near the 0→1 boundary (x=26.25) so the crossing lands inside
	// the outage window at ≈11 m/s.
	c := n.AddClient(mobility.Drive(18, 0, 25))

	// TCP downlink wired like workload.NewTCPDownlink (workload itself
	// would be an import cycle here).
	recv := transport.NewTCPReceiver(c, c.SendUplink, c.IP, packet.ServerIP, 9002, 80)
	c.Handle(9002, recv.Receive)
	send := transport.NewTCPSender(n.Loop, n.SendFromServer, packet.ServerIP, c.IP, 80, 9002, 0)
	n.ServerHandle(80, send.OnAck)
	n.Loop.After(100*sim.Millisecond, send.Start)

	var segsAtOutageEnd uint32
	n.Loop.At(sim.Time(1700*sim.Millisecond), func() { segsAtOutageEnd = recv.InOrderSegments() })
	n.Run(6 * sim.Second)

	outageDrops, _ := n.TrunkFaultDrops()
	if outageDrops == 0 {
		t.Error("no trunk messages were dropped: the outage missed the handoff window")
	}
	if lost := n.LostClients(); len(lost) != 0 {
		t.Fatalf("lost clients after trunk outage: %v", lost)
	}
	if n.ServingAP(c.ID) < 0 {
		t.Error("client not re-attached after the outage")
	}
	if recv.InOrderSegments() <= segsAtOutageEnd {
		t.Errorf("TCP did not recover after the outage: %d segments at 1.7 s, %d at end",
			segsAtOutageEnd, recv.InOrderSegments())
	}
}

// ownersOf lists the segment indices whose controller owns the client.
func ownersOf(n *Network, c *Client) []int {
	var segs []int
	for i, ctrl := range n.Controllers() {
		if ctrl.Owns(c.Addr) {
			segs = append(segs, i)
		}
	}
	return segs
}

func pos(x, y float64) rf.Position { return rf.Position{X: x, Y: y} }

// domainFaultSignature rides two clients across a federated corridor
// with an active trunk fault schedule and returns the byte-exact sink
// signature plus re-locate and lost-client counts.
func domainFaultSignature(t *testing.T, seed int64, mode DomainMode, ring bool, faults deploy.FaultSchedule, uturn bool) string {
	t.Helper()
	cfg := fedConfig(seed, fourSegs(), ring, faults)
	cfg.Domains = mode
	n := MustNewNetwork(cfg)

	trajs := []mobility.Trajectory{mobility.Drive(-5, 0, 25)}
	if uturn {
		trajs = append(trajs, mobility.NewWaypoints([]mobility.Waypoint{
			{At: 0, Pos: pos(10, 0)},
			{At: 4 * sim.Second, Pos: pos(75, 0)},
			{At: 9 * sim.Second, Pos: pos(12, 0)},
		}))
	} else {
		trajs = append(trajs, mobility.Drive(-13, 0, 25))
	}
	var sinks []*transport.UDPSink
	for i, traj := range trajs {
		c := n.AddClient(traj)
		sinks = append(sinks, attachDownlink(n, c, uint16(9001+2*i), 10))
	}
	n.Run(10 * sim.Second)

	sig := ""
	for _, s := range sinks {
		sig += fmt.Sprintf("%d:%v;", s.Bytes, s.LossRate())
	}
	sig += fmt.Sprintf("relocates=%d;lost=%d", n.Relocates(), len(n.LostClients()))
	if len(n.LostClients()) != 0 {
		t.Errorf("seed %d mode %v: lost clients %v", seed, mode, n.LostClients())
	}
	return sig
}

// TestDomainParityTrunkFaults extends the serial/parallel parity
// guarantee to fault-injected runs: scheduled outages, random trunk
// drops, and delay jitter must all resolve identically whether the
// segment domains run on one goroutine or many. Named TestDomain* so the
// ci.sh race gate runs it under -race.
func TestDomainParityTrunkFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("two 10 s corridor rides per seed")
	}
	faults := deploy.FaultSchedule{
		Outages:   []deploy.Outage{{A: 1, B: 2, Start: 2 * sim.Second, End: 4 * sim.Second}},
		DropProb:  0.02,
		JitterMax: 40 * sim.Microsecond,
	}
	for seed := int64(1); seed <= 2; seed++ {
		serial := domainFaultSignature(t, seed, DomainsSerial, false, faults, false)
		parallel := domainFaultSignature(t, seed, DomainsParallel, false, faults, false)
		if serial != parallel {
			t.Errorf("seed %d: serial %q != parallel %q", seed, serial, parallel)
		}
	}
}

// TestDomainCorridorFederatedParity is the acceptance run: a four-
// segment federated corridor with a ring trunk, a mid-run outage on an
// interior trunk, one through-driving client, and one U-turning client.
// Every client must finish attached, at least one re-locate must have
// happened, and the serial and parallel domain executions must agree bit
// for bit.
func TestDomainCorridorFederatedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two 10 s corridor rides")
	}
	faults := deploy.FaultSchedule{Outages: []deploy.Outage{
		{A: 1, B: 2, Start: 2 * sim.Second, End: 5 * sim.Second},
	}}
	serial := domainFaultSignature(t, 1, DomainsSerial, true, faults, true)
	parallel := domainFaultSignature(t, 1, DomainsParallel, true, faults, true)
	if serial != parallel {
		t.Fatalf("serial %q != parallel %q", serial, parallel)
	}
	// The signature embeds the re-locate count; require at least one.
	if strings.Contains(serial, "relocates=0;") {
		t.Errorf("no re-locates observed in acceptance run: %q", serial)
	}
}
