package core

import (
	"testing"

	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
	"wgtt/internal/transport"
)

// drive runs a standard 15 mph UDP drive-by and returns the network and
// sink for inspection.
func drive(t *testing.T, mutate func(*Config)) (*Network, *transport.UDPSink) {
	t.Helper()
	cfg := DefaultConfig(WGTT)
	if mutate != nil {
		mutate(&cfg)
	}
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(-5, 0, 15))
	src, sink := udpDownlink(n, c, 20)
	n.Loop.After(100*sim.Millisecond, src.Start)
	n.Run(9500 * sim.Millisecond)
	return n, sink
}

func TestDedupOffDeliversDuplicatesToServer(t *testing.T) {
	// With de-duplication disabled, uplink diversity turns into
	// duplicate packets at the wired side (the §3.2.3 motivation).
	run := func(dedup bool) (received, sent int) {
		cfg := DefaultConfig(WGTT)
		cfg.Controller.Dedup = dedup
		n := MustNewNetwork(cfg)
		c := n.AddClient(mobility.Drive(-5, 0, 15))
		sink := transport.NewUDPSink(n.Loop)
		n.ServerHandle(7001, func(p packet.Packet) { sink.Receive(p) })
		src := transport.NewUDPSource(n.Loop, c.SendUplink, c.IP, packet.ServerIP, 7000, 7001, 5, 1400)
		n.Loop.After(100*sim.Millisecond, src.Start)
		n.Run(9 * sim.Second)
		return sink.Received, src.Sent
	}
	recOn, sentOn := run(true)
	recOff, sentOff := run(false)
	if recOn > sentOn {
		t.Errorf("dedup on: server received %d > %d sent", recOn, sentOn)
	}
	if recOff <= sentOff {
		t.Errorf("dedup off: server received %d ≤ %d sent — no duplicates surfaced", recOff, sentOff)
	}
}

func TestFlushOffReplaysStaleBacklog(t *testing.T) {
	// Without the start(c,k) flush, the newly serving AP replays its
	// whole buffered backlog; the client's IP dedup must absorb it, and
	// the replays show up as duplicate deliveries at the MAC.
	_, _ = drive(t, nil)
	cfgOff := func(c *Config) { c.AP.FlushOnStart = false }
	nOff, _ := drive(t, cfgOff)
	nOn, _ := drive(t, nil)
	dupOff := nOff.Clients[0].RxDupIP
	dupOn := nOn.Clients[0].RxDupIP
	if dupOff <= dupOn {
		t.Errorf("flush off produced %d IP-duplicates vs %d with flush on; expected many more", dupOff, dupOn)
	}
}

func TestBAForwardOffNoRelays(t *testing.T) {
	n, _ := drive(t, func(c *Config) { c.AP.ForwardBAs = false })
	for _, a := range n.APs {
		if a.BAForwarded != 0 || a.BARecovered != 0 {
			t.Fatalf("BA forwarding active despite being disabled: fwd=%d rec=%d",
				a.BAForwarded, a.BARecovered)
		}
	}
}

func TestMultiClientFairness(t *testing.T) {
	// Two following cars with identical offered load should see
	// broadly similar goodput (round-robin at the APs).
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	lo, _ := cfg.RoadSpanX()
	trajs := mobility.Scenario(mobility.Following, 2, lo-5, 0, 15)
	var sinks []*transport.UDPSink
	for _, traj := range trajs {
		c := n.AddClient(traj)
		src, sink := udpDownlink(n, c, 15)
		n.Loop.After(100*sim.Millisecond, src.Start)
		sinks = append(sinks, sink)
	}
	n.Run(9500 * sim.Millisecond)
	a := float64(sinks[0].Bytes)
	b := float64(sinks[1].Bytes)
	if a == 0 || b == 0 {
		t.Fatal("a client starved completely")
	}
	ratio := a / b
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair split: %.0f vs %.0f bytes (ratio %.2f)", a, b, ratio)
	}
}

func TestSwitchLatencyDistribution(t *testing.T) {
	n, _ := drive(t, nil)
	done := n.FlightRecorder(0).Spans().Completed()
	if len(done) < 10 {
		t.Fatalf("only %d switches measured", len(done))
	}
	for _, h := range done {
		l := h.AckedAt.Sub(h.IssuedAt)
		// Table 1's regime plus slack: every switch completes within
		// the 30 ms stop-retransmit timeout (possibly with one
		// retransmission round).
		if l < 2*sim.Millisecond || l > 80*sim.Millisecond {
			t.Errorf("switch latency %v outside sane range", l)
		}
	}
}

func TestKeepalivesSustainSelectionWithoutTraffic(t *testing.T) {
	// With no data flows at all, the controller must still track the
	// driving client (keepalive CSI) and hand it across the array.
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	n.AddClient(mobility.Drive(-5, 0, 15))
	n.Run(9 * sim.Second)
	if acked := n.ProtocolCount(trace.OpAck); acked < 5 {
		t.Errorf("only %d switches with idle client; keepalive CSI not driving selection", acked)
	}
	if got := n.ServingAP(0); got < 5 {
		t.Errorf("serving AP %d at end of drive; expected to have reached the far end", got)
	}
}
