package core

import (
	"testing"

	"wgtt/internal/deploy"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
	"wgtt/internal/transport"
)

// threeSegments is the e2e deployment: three 8-AP segments at the
// paper's 7.5 m pitch, chained with default gaps (24 APs, 180 m).
func threeSegments(scheme Scheme) Config {
	cfg := DefaultConfig(scheme)
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 8}, {NumAPs: 8}, {NumAPs: 8}}
	return cfg
}

// TestCrossSegmentHandoffTCP rides one TCP client across a
// three-segment deployment for 60 simulated seconds and checks the
// §3.1.2-style controller-to-controller handoff: the client must be
// adopted by each segment it enters, and the flow must never stall for
// more than a second at a segment boundary.
func TestCrossSegmentHandoffTCP(t *testing.T) {
	cfg := threeSegments(WGTT)
	n := MustNewNetwork(cfg)
	if got := n.TotalAPs(); got != 24 {
		t.Fatalf("TotalAPs = %d, want 24", got)
	}
	// ~7 mph covers the 180 m array in just under 60 s.
	c := n.AddClient(mobility.Drive(-5, 0, 7))

	rcv := transport.NewTCPReceiver(n.Loop, c.SendUplink, c.IP, packet.ServerIP, 5001, 80)
	var deliveries []sim.Time
	rcv.OnData = func(seq uint32, bytes int, now sim.Time) {
		deliveries = append(deliveries, now)
	}
	c.Handle(5001, func(p packet.Packet) { rcv.Receive(p) })
	snd := transport.NewTCPSender(n.Loop, n.SendFromServer, packet.ServerIP, c.IP, 80, 5001, 0)
	n.ServerHandle(80, func(p packet.Packet) { snd.OnAck(p) })
	snd.Start()
	n.Run(60 * sim.Second)

	if rcv.InOrderSegments() == 0 {
		t.Fatal("TCP delivered nothing across the deployment")
	}
	if imported := n.ProtocolCount(trace.OpImport); imported < 2 {
		t.Errorf("handoffs imported = %d, want ≥ 2 (one per boundary crossed)", imported)
	}
	// The client must end up served by the last segment.
	if ap := n.ServingAP(0); !n.Deploy.Segments[2].ContainsAP(ap) {
		t.Errorf("final serving AP %d not in segment 2", ap)
	}
	// No TCP stall > 1 s while in coverage ([5 s, 55 s] keeps slow-start
	// and the final road exit out of the window).
	lo, hi := 5*sim.Second, 55*sim.Second
	var last sim.Time = sim.Time(lo)
	worst := sim.Duration(0)
	for _, ts := range deliveries {
		if ts.Before(sim.Time(lo)) {
			last = ts
			continue
		}
		if ts.After(sim.Time(hi)) {
			break
		}
		if gap := ts.Sub(last); gap > worst {
			worst = gap
		}
		last = ts
	}
	if worst > sim.Second {
		t.Errorf("worst mid-ride TCP stall = %v, want ≤ 1s", worst)
	}
}

// TestCrossSegmentBaselineReassociation rides a baseline client across
// two segments: the 802.11r reassociation must carry over the
// bridge-to-bridge trunk and downlink must keep flowing in the second
// segment.
func TestCrossSegmentBaselineReassociation(t *testing.T) {
	cfg := DefaultConfig(Enhanced80211r)
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 8}, {NumAPs: 8}}
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(-5, 0, 15))
	src, sink := udpDownlink(n, c, 10)
	src.Start()
	n.Run(18 * sim.Second) // 120 m at 6.7 m/s

	transfers := 0
	for _, b := range n.Bridges() {
		transfers += b.HandoffTransfers
	}
	if transfers < 1 {
		t.Errorf("bridge HandoffTransfers = %d, want ≥ 1", transfers)
	}
	if sink.Bytes == 0 {
		t.Fatal("baseline delivered nothing")
	}
	// The second bridge must own the association at the end.
	if ap := n.ServingAP(0); !n.Deploy.Segments[1].ContainsAP(ap) {
		t.Errorf("final serving AP %d not in segment 1", ap)
	}
}

// TestSingleSegmentSpecMatchesClassic pins the refactor's parity gate:
// a one-entry Segments list must reproduce the classic monolithic
// deployment bit-for-bit (same RNG fork order, ids, and geometry).
func TestSingleSegmentSpecMatchesClassic(t *testing.T) {
	run := func(cfg Config) float64 {
		n := MustNewNetwork(cfg)
		c := n.AddClient(mobility.Drive(-5, 0, 15))
		src, sink := udpDownlink(n, c, 10)
		src.Start()
		n.Run(5 * sim.Second)
		return float64(sink.Bytes)
	}
	classic := DefaultConfig(WGTT)
	segged := DefaultConfig(WGTT)
	segged.Segments = []deploy.SegmentSpec{{NumAPs: 8, APSpacing: 7.5}}
	a, b := run(classic), run(segged)
	if a != b {
		t.Errorf("classic %v ≠ single-segment spec %v bytes", a, b)
	}
}

// TestRoadExitNoStuckSwitch drives a client far past the end of the
// deployment: throughput must decay to zero without a panic and the
// controller must not wedge in a half-open switch.
func TestRoadExitNoStuckSwitch(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(30, 0, 30)) // exits the 52.5 m array fast
	src, sink := udpDownlink(n, c, 10)
	src.Start()
	n.Run(20 * sim.Second) // ends ~300 m past the last AP

	before := sink.Bytes
	n.Run(5 * sim.Second)
	if sink.Bytes != before {
		t.Errorf("client 300 m out of coverage still receiving (%d → %d bytes)", before, sink.Bytes)
	}
	if n.Ctrl.SwitchPending(c.Addr) {
		t.Error("switch FSM stuck pending after the client left coverage")
	}
}

// TestRoadExitMultiSegment is the same regression at deployment scale:
// leaving the last segment must not leave any controller owning a
// half-exported client or a pending switch.
func TestRoadExitMultiSegment(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}}
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(20, 0, 30)) // crosses into segment 1, then out
	src, sink := udpDownlink(n, c, 10)
	src.Start()
	n.Run(20 * sim.Second)

	before := sink.Bytes
	n.Run(5 * sim.Second)
	if sink.Bytes != before {
		t.Error("client far out of coverage still receiving")
	}
	for i, ctrl := range n.Controllers() {
		if ctrl.SwitchPending(c.Addr) {
			t.Errorf("segment %d switch FSM stuck pending after road exit", i)
		}
	}
}
