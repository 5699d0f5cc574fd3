package core

import (
	"testing"

	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
	"wgtt/internal/transport"
)

// udpDownlink wires a CBR UDP flow from the server to a client and
// returns the sink.
func udpDownlink(n *Network, c *Client, rateMbps float64) (*transport.UDPSource, *transport.UDPSink) {
	sink := transport.NewUDPSink(n.Loop)
	c.Handle(9001, func(p packet.Packet) { sink.Receive(p) })
	src := transport.NewUDPSource(n.Loop, n.SendFromServer,
		packet.ServerIP, c.IP, 9000, 9001, rateMbps, 1400)
	return src, sink
}

func TestWGTTStaticClientUDPDownlink(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	cfg.NumAPs = 4
	n := MustNewNetwork(cfg)
	// Parked right under AP1's beam.
	c := n.AddClient(mobility.Stationary{X: 7.5, Y: 0})
	src, sink := udpDownlink(n, c, 10)
	src.Start()
	n.Run(3 * sim.Second)

	gotMbps := float64(sink.Bytes) * 8 / 1e6 / 3
	if gotMbps < 8 {
		t.Errorf("static UDP goodput = %.2f Mbit/s of 10 offered", gotMbps)
	}
	if got := n.ServingAP(0); got != 1 {
		t.Errorf("serving AP = %d, want 1 (client under AP1)", got)
	}
	if loss := sink.LossRate(); loss > 0.05 {
		t.Errorf("loss = %.3f", loss)
	}
}

func TestWGTTDrivingClientSwitchesAndDelivers(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	// 15 mph drive across the whole array (52.5 m + margins).
	c := n.AddClient(mobility.Drive(-5, 0, 15))
	src, sink := udpDownlink(n, c, 10)
	src.Start()
	n.Run(9 * sim.Second) // 60 m at 6.7 m/s

	gotMbps := float64(sink.Bytes) * 8 / 1e6 / 9
	if gotMbps < 5 {
		t.Errorf("driving UDP goodput = %.2f Mbit/s of 10 offered", gotMbps)
	}
	if acked := n.ProtocolCount(trace.OpAck); acked < 8 {
		t.Errorf("only %d switches acked during a full drive-by", acked)
	}
	// The controller must have fanned packets out to more than one AP
	// per packet on average.
	if n.Ctrl.DownlinkFanout <= n.Ctrl.DownlinkPackets {
		t.Errorf("fanout %d ≤ packets %d: no path diversity", n.Ctrl.DownlinkFanout, n.Ctrl.DownlinkPackets)
	}
}

func TestWGTTDrivingClientTCP(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(-5, 0, 15))

	rcv := transport.NewTCPReceiver(n.Loop, c.SendUplink, c.IP, packet.ServerIP, 5001, 80)
	c.Handle(5001, func(p packet.Packet) { rcv.Receive(p) })
	snd := transport.NewTCPSender(n.Loop, n.SendFromServer, packet.ServerIP, c.IP, 80, 5001, 0)
	n.ServerHandle(80, func(p packet.Packet) { snd.OnAck(p) })
	snd.Start()
	n.Run(9 * sim.Second)

	segs := rcv.InOrderSegments()
	mbps := float64(segs) * transport.MSS * 8 / 1e6 / 9
	if mbps < 3 {
		t.Errorf("driving TCP goodput = %.2f Mbit/s (%d segments)", mbps, segs)
	}
	// The flow must still be alive at the end of the drive (Fig. 14's
	// baseline dies mid-drive; WGTT's does not).
	before := rcv.InOrderSegments()
	n.Run(10 * sim.Second)
	if rcv.InOrderSegments() <= before {
		t.Error("TCP flow dead at end of drive")
	}
}

func TestEnhanced80211rDrivingClientDegrades(t *testing.T) {
	// The baseline must work but deliver far less at driving speed than
	// WGTT (Fig. 13's gap).
	run := func(scheme Scheme) float64 {
		cfg := DefaultConfig(scheme)
		n := MustNewNetwork(cfg)
		c := n.AddClient(mobility.Drive(-5, 0, 15))
		// Saturating offered load, as in the paper's iperf runs: the
		// buffering pathologies only appear when queues backlog.
		src, sink := udpDownlink(n, c, 30)
		src.Start()
		n.Run(9 * sim.Second)
		return float64(sink.Bytes) * 8 / 1e6 / 9
	}
	wgtt := run(WGTT)
	base := run(Enhanced80211r)
	if base <= 0 {
		t.Fatal("baseline delivered nothing; roaming must still work")
	}
	if wgtt < 1.5*base {
		t.Errorf("WGTT %.2f vs baseline %.2f Mbit/s: expected ≥1.5× gap", wgtt, base)
	}
}

func TestUplinkDiversityDedup(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(-5, 0, 15))
	// Uplink CBR from the client to the server.
	sink := transport.NewUDPSink(n.Loop)
	n.ServerHandle(7001, func(p packet.Packet) { sink.Receive(p) })
	src := transport.NewUDPSource(n.Loop, c.SendUplink, c.IP, packet.ServerIP, 7000, 7001, 5, 1400)
	src.Start()
	n.Run(8 * sim.Second)

	if sink.Received == 0 {
		t.Fatal("no uplink packets delivered")
	}
	if n.Ctrl.UplinkDuplicates == 0 {
		t.Error("no duplicates removed: uplink diversity not exercised")
	}
	// The server must see no duplicate sequence numbers slip through:
	// Received should not exceed distinct seqs sent.
	if sink.Received > src.Sent {
		t.Errorf("server got %d packets for %d sent: dedup failed", sink.Received, src.Sent)
	}
	if loss := sink.LossRate(); loss > 0.1 {
		t.Errorf("uplink loss %.3f despite multi-AP reception", loss)
	}
}

func TestBAForwardingRecoversAcks(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	c := n.AddClient(mobility.Drive(-5, 0, 15))
	src, _ := udpDownlink(n, c, 10)
	src.Start()
	n.Run(9 * sim.Second)

	recovered := 0
	forwarded := 0
	for _, a := range n.APs {
		recovered += a.BARecovered
		forwarded += a.BAForwarded
	}
	if forwarded == 0 {
		t.Error("no BAs were ever forwarded between APs")
	}
	if recovered == 0 {
		t.Error("no aggregate was ever saved by a forwarded BA")
	}
}

func TestSchemeStrings(t *testing.T) {
	if WGTT.String() != "WGTT" || Enhanced80211r.String() == "" || Stock80211r.String() == "" {
		t.Error("scheme strings wrong")
	}
}

func TestOracleAndLinkESNR(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	n := MustNewNetwork(cfg)
	n.AddClient(mobility.Stationary{X: 22.5, Y: 0}) // under AP3
	best := n.OracleBestAP(0)
	if best != 3 {
		// Fading can shift the instantaneous best to a neighbour, but
		// never far.
		if best < 2 || best > 4 {
			t.Errorf("oracle best AP = %d for client under AP3", best)
		}
	}
	e := n.LinkESNRdB(3, 0)
	if e < 5 || e > 45 {
		t.Errorf("link ESNR under the beam = %v dB", e)
	}
	far := n.LinkESNRdB(7, 0) // 30 m away
	if far >= e {
		t.Errorf("far AP ESNR %v ≥ near AP %v", far, e)
	}
}
