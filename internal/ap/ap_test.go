package ap

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

const (
	nodeCtrl backhaul.NodeID = 0
	nodeAP0  backhaul.NodeID = 2
)

type fakeFabric struct{ numAPs int }

func (f fakeFabric) APNode(id uint16) backhaul.NodeID { return nodeAP0 + backhaul.NodeID(id) }
func (f fakeFabric) Controller() backhaul.NodeID      { return nodeCtrl }
func (f fakeFabric) APByMAC(m packet.MAC) (backhaul.NodeID, bool) {
	for i := 0; i < f.numAPs; i++ {
		if packet.APMAC(i) == m {
			return nodeAP0 + backhaul.NodeID(i), true
		}
	}
	return 0, false
}

// flatChannel gives every pair a fixed good SNR.
type flatChannel struct{ snr float64 }

func (f flatChannel) SubcarrierSNRs(tx, rx *mac.Node, _, floor float64, dst []float64) (bool, bool) {
	return true, rf.FillFlatSNRsDB(f.snr, floor, dst)
}
func (f flatChannel) SenseSNRdB(tx, rx *mac.Node) float64 { return f.snr }

// clientSink is a fake client radio that records data deliveries and
// answers with block ACKs.
type clientSink struct {
	loop    *sim.Loop
	medium  *mac.Medium
	node    *mac.Node
	rx      []packet.Packet
	ackBack bool
}

func newClientSink(loop *sim.Loop, medium *mac.Medium, ackBack bool) *clientSink {
	c := &clientSink{loop: loop, medium: medium, ackBack: ackBack}
	c.node = &mac.Node{
		Name: "cli",
		Addr: packet.ClientMAC(0),
		Pos:  func() rf.Position { return rf.Position{} },
		Recv: c,
	}
	medium.Register(c.node)
	return c
}

func (c *clientSink) OnReceive(t *mac.Transmission, det mac.Detection) {
	if t.Type != mac.FrameData || t.Dst != c.node.Addr || det.Collided {
		return
	}
	for i := range t.MPDUs {
		if det.OK[i] {
			c.rx = append(c.rx, t.MPDUs[i].Pkt)
		}
	}
	if !c.ackBack {
		return
	}
	ba := mac.BuildBitmap(t.MPDUs, det.OK)
	c.loop.After(phy.SIFS, func() {
		c.medium.Transmit(&mac.Transmission{
			Tx: c.node, Dst: t.Tx.Addr, Type: mac.FrameBlockAck,
			Rate: phy.BasicRate, BA: ba,
		})
	})
}

type apRig struct {
	loop   *sim.Loop
	bh     *backhaul.Net
	medium *mac.Medium
	aps    []*AP
	rec    *trace.Recorder // shared by every AP, as in a segment
	cli    *clientSink
	// ctrlMsgs records messages the controller node received.
	ctrlMsgs []packet.Message
}

func newAPRig(t *testing.T, numAPs int, cfg Config, ackBack bool) *apRig {
	t.Helper()
	r := &apRig{loop: sim.NewLoop()}
	r.bh = backhaul.New(r.loop, backhaul.DefaultConfig())
	r.bh.AddNode(nodeCtrl, func(_ backhaul.NodeID, m packet.Message) {
		r.ctrlMsgs = append(r.ctrlMsgs, m)
	})
	r.medium = mac.NewMedium(r.loop, flatChannel{snr: 30}, sim.NewRNG(5))
	fab := fakeFabric{numAPs: numAPs}
	r.rec = trace.NewRecorder(0, 0)
	for i := 0; i < numAPs; i++ {
		a := New(uint16(i), rf.Position{X: float64(i) * 7.5, Y: 18},
			r.loop, r.medium, r.bh, nodeAP0+backhaul.NodeID(i), fab, cfg, sim.NewRNG(int64(i+10)))
		a.Rec = r.rec
		r.aps = append(r.aps, a)
	}
	r.cli = newClientSink(r.loop, r.medium, ackBack)
	return r
}

func (r *apRig) run(d sim.Duration) { r.loop.Run(r.loop.Now().Add(d)) }

// feed pushes n downlink packets (indexes from idx0) to AP ap.
func (r *apRig) feed(ap int, idx0, n int) {
	for i := 0; i < n; i++ {
		r.bh.Send(nodeCtrl, nodeAP0+backhaul.NodeID(ap), &packet.DownlinkData{
			Client: packet.ClientMAC(0),
			Inner: packet.Packet{
				Src: packet.ServerIP, Dst: packet.ClientIP(0), Proto: packet.ProtoUDP,
				IPID: uint16(idx0 + i), PayloadLen: 1000, Index: uint16(idx0 + i),
			},
		})
	}
}

func (r *apRig) start(ap int, idx uint16, switchID uint32) {
	r.bh.Send(nodeCtrl, nodeAP0+backhaul.NodeID(ap), &packet.Start{
		Client: packet.ClientMAC(0), Index: idx, SwitchID: switchID,
	})
}

func TestAPServesOnlyAfterStart(t *testing.T) {
	r := newAPRig(t, 1, DefaultConfig(), true)
	r.feed(0, 0, 10)
	r.run(20 * sim.Millisecond)
	if len(r.cli.rx) != 0 {
		t.Fatalf("AP transmitted %d packets before start(c,k)", len(r.cli.rx))
	}
	r.start(0, 0, 1)
	r.run(50 * sim.Millisecond)
	if len(r.cli.rx) != 10 {
		t.Fatalf("delivered %d/10 after start", len(r.cli.rx))
	}
	// Ack to the controller.
	found := false
	for _, m := range r.ctrlMsgs {
		if a, ok := m.(*packet.SwitchAck); ok && a.SwitchID == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no SwitchAck sent")
	}
}

func TestAPStartFlushesBacklogBeforeK(t *testing.T) {
	r := newAPRig(t, 1, DefaultConfig(), true)
	r.feed(0, 0, 20)
	r.run(5 * sim.Millisecond)
	r.start(0, 12, 1) // hand-off at index 12: 0..11 were delivered elsewhere
	r.run(50 * sim.Millisecond)
	if len(r.cli.rx) != 8 {
		t.Fatalf("delivered %d, want 8 (indexes 12..19)", len(r.cli.rx))
	}
	if r.cli.rx[0].Index != 12 {
		t.Errorf("first delivered index %d, want 12", r.cli.rx[0].Index)
	}
}

func TestAPStopReportsFirstUnsent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IoctlDelay = 2 * sim.Millisecond
	cfg.IoctlJitter = 0
	r := newAPRig(t, 2, cfg, true)
	r.feed(0, 0, 300)
	r.feed(1, 0, 300) // fan-out copy at AP1
	r.start(0, 0, 1)
	r.run(15 * sim.Millisecond) // some but not all delivered
	delivered := len(r.cli.rx)
	if delivered == 0 || delivered == 300 {
		t.Fatalf("awkward test state: %d delivered", delivered)
	}
	// Stop AP0, handing off to AP1.
	r.bh.Send(nodeCtrl, nodeAP0, &packet.Stop{
		Client: packet.ClientMAC(0), NewAP: packet.APMAC(1), NewAPID: 1, SwitchID: 2,
	})
	r.run(100 * sim.Millisecond)
	// Everything must eventually arrive, each exactly once (AP1 resumed
	// at AP0's first unsent index).
	if len(r.cli.rx) != 300 {
		t.Fatalf("delivered %d/300 across the switch", len(r.cli.rx))
	}
	seen := map[uint16]bool{}
	for _, p := range r.cli.rx {
		if seen[p.Index] {
			t.Fatalf("index %d delivered twice", p.Index)
		}
		seen[p.Index] = true
	}
	if r.rec.Count(0, trace.OpStop) != 1 || r.rec.Count(1, trace.OpStartRx) == 0 {
		t.Error("switch counters wrong")
	}
}

func TestAPStaleStartIgnoredViaSetHeadGuard(t *testing.T) {
	r := newAPRig(t, 1, DefaultConfig(), true)
	r.feed(0, 0, 10)
	r.start(0, 0, 1)
	r.run(50 * sim.Millisecond)
	if len(r.cli.rx) != 10 {
		t.Fatal("setup failed")
	}
	// A duplicated (retransmitted) start for an index already served
	// must not resend old data.
	r.start(0, 0, 1)
	r.run(50 * sim.Millisecond)
	if len(r.cli.rx) != 10 {
		t.Errorf("duplicate start replayed data: %d deliveries", len(r.cli.rx))
	}
}

func TestAPBATimeoutRetransmits(t *testing.T) {
	// Client never acks: the AP must retry each MPDU up to the limit and
	// then drop, not spin forever.
	r := newAPRig(t, 1, DefaultConfig(), false /* no acks */)
	r.feed(0, 0, 4)
	r.start(0, 0, 1)
	r.run(300 * sim.Millisecond)
	if len(r.cli.rx) < 4 {
		t.Fatalf("client decoded %d/4", len(r.cli.rx)) // decodes, just never acks
	}
	st := r.aps[0].AggStats(packet.ClientMAC(0))
	if st.Resent == 0 {
		t.Error("no retransmissions despite missing BAs")
	}
	if st.Dropped != 4 {
		t.Errorf("dropped = %d, want 4 after retry limit", st.Dropped)
	}
	if st.Pending != 0 {
		t.Errorf("pending retries = %d at steady state", st.Pending)
	}
}

func TestAPForwardedBASettlesAggregate(t *testing.T) {
	// The client's BA is addressed to AP0 but AP0 never hears it
	// (ackBack=false); a forwarded copy over the backhaul must settle
	// the aggregate instead.
	cfg := DefaultConfig()
	r := newAPRig(t, 1, cfg, false)
	r.feed(0, 0, 4)
	r.start(0, 0, 1)
	// Wait for the first aggregate to fly, then inject the forwarded BA
	// that "another AP" overheard.
	r.run(8 * sim.Millisecond)
	ba := &packet.BAForward{
		Client: packet.ClientMAC(0), FromAPID: 9,
		StartSeq: 0, Bitmap: 0xF,
	}
	r.bh.Send(nodeCtrl, nodeAP0, ba)
	r.run(20 * sim.Millisecond)
	if acked := r.aps[0].AggStats(packet.ClientMAC(0)).Acked; acked != 4 {
		t.Errorf("acked = %d, want 4 via forwarded BA", acked)
	}
	if r.aps[0].BARecovered != 1 {
		t.Errorf("BARecovered = %d", r.aps[0].BARecovered)
	}
}

func TestAPUplinkTunnelsAndReportsCSI(t *testing.T) {
	r := newAPRig(t, 2, DefaultConfig(), true)
	// Client transmits an uplink aggregate addressed to the BSSID.
	up := &mac.Transmission{
		Tx: r.cli.node, Dst: packet.BSSID, Type: mac.FrameData, Rate: phy.Rates[0],
		MPDUs: []mac.MPDU{{Seq: 0, Pkt: packet.Packet{
			Src: packet.ClientIP(0), Dst: packet.ServerIP, Proto: packet.ProtoUDP,
			IPID: 1, PayloadLen: 500,
		}}},
	}
	r.medium.Transmit(up)
	r.run(20 * sim.Millisecond)

	uplinks, csis := 0, 0
	for _, m := range r.ctrlMsgs {
		switch m.(type) {
		case *packet.UplinkData:
			uplinks++
		case *packet.CSIReport:
			csis++
		}
	}
	// Both APs hear the frame on the flat channel: both tunnel it (the
	// controller de-duplicates) and both report CSI.
	if uplinks != 2 {
		t.Errorf("UplinkData count = %d, want 2 (both APs)", uplinks)
	}
	if csis < 2 {
		t.Errorf("CSIReport count = %d, want ≥2", csis)
	}
}

func TestAPSecondaryAckCCA(t *testing.T) {
	// With two APs hearing the same uplink frame, their acks must not
	// collide at the client: the backoff + CCA check serializes them (a
	// redundant late ack is harmless; a collision is what Table 3
	// measures).
	r := newAPRig(t, 2, DefaultConfig(), true)
	baSeen, baCollided := 0, 0
	cliRecv := r.cli.node.Recv
	r.cli.node.Recv = recvFunc(func(tr *mac.Transmission, det mac.Detection) {
		if tr.Type == mac.FrameBlockAck && tr.Dst == r.cli.node.Addr {
			if det.Collided {
				baCollided++
			} else {
				baSeen++
			}
		}
		cliRecv.OnReceive(tr, det)
	})
	up := &mac.Transmission{
		Tx: r.cli.node, Dst: packet.BSSID, Type: mac.FrameData, Rate: phy.Rates[0],
		MPDUs: []mac.MPDU{{Seq: 0, Pkt: packet.Packet{
			Src: packet.ClientIP(0), Dst: packet.ServerIP, Proto: packet.ProtoUDP,
			IPID: 2, PayloadLen: 500,
		}}},
	}
	r.medium.Transmit(up)
	r.run(10 * sim.Millisecond)
	if baSeen == 0 {
		t.Fatal("client heard no uplink ack at all")
	}
	if baCollided != 0 {
		t.Errorf("%d acks collided at the client", baCollided)
	}
}

// recvFunc adapts a func to mac.Receiver.
type recvFunc func(*mac.Transmission, mac.Detection)

func (f recvFunc) OnReceive(t *mac.Transmission, det mac.Detection) { f(t, det) }

func TestAPRoundRobinAcrossClients(t *testing.T) {
	r := newAPRig(t, 1, DefaultConfig(), false)
	// Second client radio that records deliveries and acks.
	cli2 := &clientSink{loop: r.loop, medium: r.medium, ackBack: true}
	cli2.node = &mac.Node{
		Name: "cli2", Addr: packet.ClientMAC(1),
		Pos:  func() rf.Position { return rf.Position{} },
		Recv: cli2,
	}
	r.medium.Register(cli2.node)
	r.cli.ackBack = true

	// Feed both clients and start serving both.
	for i := 0; i < 10; i++ {
		for ci := 0; ci < 2; ci++ {
			r.bh.Send(nodeCtrl, nodeAP0, &packet.DownlinkData{
				Client: packet.ClientMAC(ci),
				Inner: packet.Packet{
					Src: packet.ServerIP, Dst: packet.ClientIP(ci), Proto: packet.ProtoUDP,
					IPID: uint16(100*ci + i), PayloadLen: 1000, Index: uint16(i),
				},
			})
		}
	}
	r.bh.Send(nodeCtrl, nodeAP0, &packet.Start{Client: packet.ClientMAC(0), Index: 0, SwitchID: 1})
	r.bh.Send(nodeCtrl, nodeAP0, &packet.Start{Client: packet.ClientMAC(1), Index: 0, SwitchID: 2})
	r.run(100 * sim.Millisecond)
	if len(r.cli.rx) != 10 || len(cli2.rx) != 10 {
		t.Errorf("deliveries = %d,%d; want 10,10", len(r.cli.rx), len(cli2.rx))
	}
}

// aggConsistent asserts the AggSnapshot conservation law at quiescence:
// every first-transmitted MPDU is acked, dropped, abandoned, or pending.
func aggConsistent(t *testing.T, label string, st AggSnapshot) {
	t.Helper()
	if st.Sent != st.Acked+st.Dropped+st.Abandoned+st.Pending {
		t.Errorf("%s: sent=%d != acked=%d + dropped=%d + abandoned=%d + pending=%d",
			label, st.Sent, st.Acked, st.Dropped, st.Abandoned, st.Pending)
	}
}

// TestAggStatsConsistentAcrossHandoff drives a full stop/start/ack round
// on a lossy link (client decodes but never acks, so retries pile up and
// the stop abandons them) and asserts the per-AP MPDU accounting stays
// conserved on both sides of the switch.
func TestAggStatsConsistentAcrossHandoff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IoctlDelay = 2 * sim.Millisecond
	cfg.IoctlJitter = 0
	r := newAPRig(t, 2, cfg, false /* no acks: force retries */)
	client := packet.ClientMAC(0)
	r.feed(0, 0, 60)
	r.feed(1, 0, 60) // fan-out copy at the successor
	r.start(0, 0, 1)
	r.run(12 * sim.Millisecond) // mid-stream, retries pending at AP0
	r.bh.Send(nodeCtrl, nodeAP0, &packet.Stop{
		Client: client, NewAP: packet.APMAC(1), NewAPID: 1, SwitchID: 2,
	})
	r.run(600 * sim.Millisecond) // drain to quiescence

	for i, a := range r.aps {
		busy, awaiting, _, _, _ := a.DebugState(client)
		if busy || awaiting {
			t.Fatalf("ap%d not quiescent (busy=%v awaiting=%v)", i, busy, awaiting)
		}
		aggConsistent(t, a.node.Name, a.AggStats(client))
	}
	st0 := r.aps[0].AggStats(client)
	if st0.Abandoned == 0 {
		t.Error("stop while retries were pending abandoned nothing")
	}
	if st0.Pending != 0 {
		t.Errorf("ap0 still has %d pending retries after its stop", st0.Pending)
	}
	if n := r.rec.Count(1, trace.OpStartRx); n != 1 {
		t.Errorf("ap1 switches = %d, want 1", n)
	}
	// The same law must hold on a clean (acked) link too.
	r2 := newAPRig(t, 2, cfg, true)
	r2.feed(0, 0, 60)
	r2.feed(1, 0, 60)
	r2.start(0, 0, 1)
	r2.run(12 * sim.Millisecond)
	r2.bh.Send(nodeCtrl, nodeAP0, &packet.Stop{
		Client: client, NewAP: packet.APMAC(1), NewAPID: 1, SwitchID: 2,
	})
	r2.run(600 * sim.Millisecond)
	for _, a := range r2.aps {
		aggConsistent(t, a.node.Name+"/acked", a.AggStats(client))
	}
}

func TestAPRateCountsAccumulate(t *testing.T) {
	r := newAPRig(t, 1, DefaultConfig(), true)
	r.feed(0, 0, 30)
	r.start(0, 0, 1)
	r.run(100 * sim.Millisecond)
	total := 0
	for _, n := range r.aps[0].RateMPDUs {
		total += n
	}
	if total < 30 {
		t.Errorf("rate-tagged MPDUs = %d, want ≥30", total)
	}
}
