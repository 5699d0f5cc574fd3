package client

import (
	"testing"

	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// flatChannel: every pair hears every pair at a fixed SNR.
type flatChannel struct{ snr float64 }

func (f flatChannel) SubcarrierSNRs(tx, rx *mac.Node, _, floor float64, dst []float64) (bool, bool) {
	return true, rf.FillFlatSNRsDB(f.snr, floor, dst)
}
func (f flatChannel) SenseSNRdB(tx, rx *mac.Node) float64 { return f.snr }

// apStub is a minimal AP-side radio: records uplink deliveries and can
// ack them.
type apStub struct {
	loop   *sim.Loop
	medium *mac.Medium
	node   *mac.Node
	rx     []packet.Packet
	bas    []mac.BAInfo
	ack    bool
}

func newAPStub(loop *sim.Loop, medium *mac.Medium, id int, ack bool) *apStub {
	a := &apStub{loop: loop, medium: medium, ack: ack}
	a.node = &mac.Node{
		Name: "apstub",
		Addr: packet.APMAC(id),
		Pos:  func() rf.Position { return rf.Position{X: 0, Y: 18} },
		Recv: a,
	}
	medium.Register(a.node)
	return a
}

func (a *apStub) OnReceive(t *mac.Transmission, det mac.Detection) {
	switch t.Type {
	case mac.FrameData:
		if t.Dst != packet.BSSID && t.Dst != a.node.Addr {
			return
		}
		anyOK := false
		for i := range t.MPDUs {
			if det.OK[i] {
				a.rx = append(a.rx, t.MPDUs[i].Pkt)
				anyOK = true
			}
		}
		if anyOK && a.ack {
			ba := mac.BuildBitmap(t.MPDUs, det.OK)
			a.loop.After(phy.SIFS, func() {
				a.medium.Transmit(&mac.Transmission{
					Tx: a.node, Dst: t.Tx.Addr, Type: mac.FrameBlockAck,
					Rate: phy.BasicRate, BA: ba,
				})
			})
		}
	case mac.FrameBlockAck:
		if t.Dst == a.node.Addr {
			a.bas = append(a.bas, t.BA)
		}
	}
}

type rig struct {
	loop   *sim.Loop
	medium *mac.Medium
	cli    *Client
	ap     *apStub
	got    []packet.Packet
}

func newRig(t *testing.T, ack bool) *rig {
	t.Helper()
	r := &rig{loop: sim.NewLoop()}
	r.medium = mac.NewMedium(r.loop, flatChannel{snr: 30}, sim.NewRNG(3))
	r.ap = newAPStub(r.loop, r.medium, 0, ack)
	r.cli = New(0, r.loop, r.medium, mobility.Stationary{}, DefaultConfig(), sim.NewRNG(4))
	r.cli.OnPacket = func(p packet.Packet) { r.got = append(r.got, p) }
	return r
}

func (r *rig) run(d sim.Duration) { r.loop.Run(r.loop.Now().Add(d)) }

// deliver transmits a downlink aggregate from the AP stub to the client.
func (r *rig) deliver(seq0 uint16, pkts ...packet.Packet) *mac.Transmission {
	t := &mac.Transmission{
		Tx: r.ap.node, Dst: r.cli.Addr, Type: mac.FrameData, Rate: phy.Rates[0],
	}
	for i, p := range pkts {
		t.MPDUs = append(t.MPDUs, mac.MPDU{Seq: seq0 + uint16(i), Pkt: p})
	}
	r.medium.Transmit(t)
	return t
}

func dlPkt(ipid uint16) packet.Packet {
	return packet.Packet{
		Src: packet.ServerIP, Dst: packet.ClientIP(0), Proto: packet.ProtoUDP,
		IPID: ipid, DstPort: 9001, PayloadLen: 500,
	}
}

func TestClientDeliversAndAcksDownlink(t *testing.T) {
	r := newRig(t, false)
	r.deliver(100, dlPkt(1), dlPkt(2), dlPkt(3))
	r.run(5 * sim.Millisecond)
	if len(r.got) != 3 {
		t.Fatalf("delivered %d/3", len(r.got))
	}
	if len(r.ap.bas) != 1 {
		t.Fatalf("AP heard %d block ACKs, want 1", len(r.ap.bas))
	}
	ba := r.ap.bas[0]
	for seq := uint16(100); seq < 103; seq++ {
		if !ba.Acked(seq) {
			t.Errorf("seq %d not acked", seq)
		}
	}
	if r.cli.RxMPDUs != 3 || r.cli.RxBytes == 0 {
		t.Errorf("stats: RxMPDUs=%d RxBytes=%d", r.cli.RxMPDUs, r.cli.RxBytes)
	}
}

func TestClientMACDedupOnRetransmission(t *testing.T) {
	r := newRig(t, false)
	// Same MPDU (same tx, same seq) delivered twice — a MAC
	// retransmission after a lost BA. Stack sees it once, but it is
	// re-acked.
	r.deliver(7, dlPkt(42))
	r.run(2 * sim.Millisecond)
	r.deliver(7, dlPkt(42))
	r.run(5 * sim.Millisecond)
	if len(r.got) != 1 {
		t.Fatalf("stack saw %d copies, want 1", len(r.got))
	}
	if r.cli.RxDupMAC != 1 {
		t.Errorf("RxDupMAC = %d", r.cli.RxDupMAC)
	}
	if len(r.ap.bas) != 2 {
		t.Errorf("retransmission not re-acked: %d BAs", len(r.ap.bas))
	}
}

func TestClientIPDedupAcrossAPs(t *testing.T) {
	r := newRig(t, false)
	ap2 := newAPStub(r.loop, r.medium, 1, false)
	// The same IP packet arrives via two different APs (fan-out copies
	// around a switch): different MAC seq spaces, same (src, IPID).
	r.deliver(7, dlPkt(42))
	r.run(2 * sim.Millisecond)
	t2 := &mac.Transmission{
		Tx: ap2.node, Dst: r.cli.Addr, Type: mac.FrameData, Rate: phy.Rates[0],
		MPDUs: []mac.MPDU{{Seq: 900, Pkt: dlPkt(42)}},
	}
	r.medium.Transmit(t2)
	r.run(5 * sim.Millisecond)
	if len(r.got) != 1 {
		t.Fatalf("stack saw %d copies, want 1", len(r.got))
	}
	if r.cli.RxDupIP != 1 {
		t.Errorf("RxDupIP = %d", r.cli.RxDupIP)
	}
}

func TestClientAcceptFromFilter(t *testing.T) {
	r := newRig(t, false)
	other := newAPStub(r.loop, r.medium, 1, false)
	r.cli.AcceptFrom = func(tx *mac.Node) bool { return tx == other.node }
	r.deliver(7, dlPkt(1)) // from the filtered-out AP
	r.run(5 * sim.Millisecond)
	if len(r.got) != 0 {
		t.Fatal("accepted data from a non-associated BSS")
	}
	if len(r.ap.bas) != 0 {
		t.Fatal("acked a frame from a non-associated BSS")
	}
}

func TestClientUplinkFlow(t *testing.T) {
	r := newRig(t, true)
	for i := 0; i < 12; i++ {
		r.cli.SendUplink(packet.Packet{
			Dst: packet.ServerIP, Proto: packet.ProtoUDP, DstPort: 7001,
			Seq: uint32(i), PayloadLen: 900,
		})
	}
	r.run(50 * sim.Millisecond)
	data := 0
	for _, p := range r.ap.rx {
		if p.PayloadLen == 0 {
			continue // keepalive
		}
		data++
		// Source addressing was stamped by the client's stack.
		if p.Src != r.cli.IP {
			t.Fatalf("uplink Src = %v", p.Src)
		}
		if p.IPID == 0 {
			t.Fatal("uplink IPID not stamped")
		}
	}
	if data != 12 {
		t.Fatalf("AP received %d/12 uplink data packets", data)
	}
	if r.cli.QueueLen() != 0 {
		t.Errorf("uplink queue not drained: %d", r.cli.QueueLen())
	}
}

func TestClientUplinkRetriesWithoutAck(t *testing.T) {
	r := newRig(t, false) // AP never acks
	r.cli.SendUplink(packet.Packet{Dst: packet.ServerIP, Proto: packet.ProtoUDP, PayloadLen: 500})
	r.run(100 * sim.Millisecond)
	if r.cli.BATimeouts == 0 {
		t.Error("no BA timeouts despite silent AP")
	}
	// The frame is retried then dropped; the loop must not wedge.
	if r.cli.QueueLen() != 0 {
		t.Error("uplink queue wedged")
	}
	// AP decoded several copies (retries) of the same packet.
	if len(r.ap.rx) < 2 {
		t.Errorf("AP saw %d attempts, want ≥2", len(r.ap.rx))
	}
}

func TestClientKeepalivesFlowWhenIdle(t *testing.T) {
	r := newRig(t, true)
	r.run(500 * sim.Millisecond)
	if r.cli.KeepalivesSent < 5 {
		t.Errorf("keepalives = %d in 500 ms, want ≥5", r.cli.KeepalivesSent)
	}
	if len(r.ap.rx) < 5 {
		t.Errorf("AP received %d keepalives", len(r.ap.rx))
	}
	// All keepalives carry zero payload and the controller's address.
	for _, p := range r.ap.rx {
		if p.PayloadLen != 0 || p.Dst != packet.ControllerIP {
			t.Fatalf("odd keepalive: %+v", p)
		}
	}
}

func TestClientBeaconAndMgmtHooks(t *testing.T) {
	r := newRig(t, false)
	beacons, mgmts := 0, 0
	r.cli.OnBeacon = func(tx *mac.Node, esnr float64) {
		beacons++
		// Beacons ride BPSK, whose BER underflows on a clean 30 dB
		// channel, so the ESNR saturates high; it just must not be
		// low.
		if esnr < 20 {
			t.Errorf("beacon ESNR = %v on a 30 dB channel", esnr)
		}
	}
	r.cli.OnMgmt = func(tx *mac.Node, info mac.MgmtInfo) {
		mgmts++
		if info.Kind != mac.MgmtReassocResp {
			t.Errorf("mgmt kind = %v", info.Kind)
		}
	}
	r.medium.Transmit(&mac.Transmission{
		Tx: r.ap.node, Dst: mac.Broadcast, Type: mac.FrameBeacon, Rate: phy.BasicRate,
	})
	r.medium.Transmit(&mac.Transmission{
		Tx: r.ap.node, Dst: r.cli.Addr, Type: mac.FrameMgmt, Rate: phy.BasicRate,
		Mgmt: mac.MgmtInfo{Kind: mac.MgmtReassocResp},
	})
	// A mgmt frame for someone else must not reach the hook.
	r.medium.Transmit(&mac.Transmission{
		Tx: r.ap.node, Dst: packet.ClientMAC(5), Type: mac.FrameMgmt, Rate: phy.BasicRate,
		Mgmt: mac.MgmtInfo{Kind: mac.MgmtReassocResp},
	})
	r.run(10 * sim.Millisecond)
	if beacons != 1 || mgmts != 1 {
		t.Errorf("beacons=%d mgmts=%d, want 1,1", beacons, mgmts)
	}
}

func TestClientPartialDecodeAcksOnlyDecoded(t *testing.T) {
	// Deliver at a rate the 30 dB channel cannot fully sustain, forcing
	// some MPDU losses; the BA bitmap must match exactly the decoded
	// set. Use a weak channel for determinism of at least one loss.
	loop := sim.NewLoop()
	medium := mac.NewMedium(loop, flatChannel{snr: 14}, sim.NewRNG(9))
	ap := newAPStub(loop, medium, 0, false)
	cli := New(0, loop, medium, mobility.Stationary{}, DefaultConfig(), sim.NewRNG(10))
	delivered := map[uint32]bool{}
	cli.OnPacket = func(p packet.Packet) { delivered[p.Seq] = true }

	tr := &mac.Transmission{
		Tx: ap.node, Dst: cli.Addr, Type: mac.FrameData, Rate: phy.Rates[5], // MCS5 at 14 dB: heavy loss
	}
	for i := 0; i < 30; i++ {
		p := dlPkt(uint16(i + 1))
		p.Seq = uint32(i)
		tr.MPDUs = append(tr.MPDUs, mac.MPDU{Seq: uint16(i), Pkt: p})
	}
	medium.Transmit(tr)
	loop.Run(loop.Now().Add(10 * sim.Millisecond))

	if len(ap.bas) == 0 {
		if len(delivered) != 0 {
			t.Fatal("packets delivered but nothing acked")
		}
		return // everything lost: legitimately no BA
	}
	ba := ap.bas[0]
	for i := 0; i < 30; i++ {
		if ba.Acked(uint16(i)) != delivered[uint32(i)] {
			t.Fatalf("seq %d: acked=%v delivered=%v", i, ba.Acked(uint16(i)), delivered[uint32(i)])
		}
	}
}
