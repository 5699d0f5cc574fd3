package controller

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

const (
	nodeCtrl   backhaul.NodeID = 0
	nodeServer backhaul.NodeID = 1
	nodeAP0    backhaul.NodeID = 2
)

type fakeFabric struct{}

func (fakeFabric) APNode(id uint16) backhaul.NodeID { return nodeAP0 + backhaul.NodeID(id) }
func (fakeFabric) Server() backhaul.NodeID          { return nodeServer }

// rig wires a controller to capture-only AP and server nodes.
type rig struct {
	loop *sim.Loop
	bh   *backhaul.Net
	ctrl *Controller
	// apMsgs[i] records messages delivered to AP i.
	apMsgs [4][]packet.Message
	server []packet.Message
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{loop: sim.NewLoop()}
	r.bh = backhaul.New(r.loop, backhaul.DefaultConfig())
	r.ctrl = New(r.loop, r.bh, nodeCtrl, fakeFabric{}, 0, 4, cfg)
	r.ctrl.Rec = trace.NewRecorder(0, 0)
	for i := 0; i < 4; i++ {
		i := i
		r.bh.AddNode(nodeAP0+backhaul.NodeID(i), func(_ backhaul.NodeID, m packet.Message) {
			r.apMsgs[i] = append(r.apMsgs[i], m)
		})
	}
	r.bh.AddNode(nodeServer, func(_ backhaul.NodeID, m packet.Message) {
		r.server = append(r.server, m)
	})
	return r
}

// csi reports a flat-SNR reading from AP ap for the client.
func (r *rig) csi(ap uint16, client packet.MAC, esnrDB float64) {
	rep := &packet.CSIReport{Client: client, APID: ap, Time: r.loop.Now()}
	for i := 0; i < rf.NumSubcarriers; i++ {
		rep.SNRsDB[i] = esnrDB
	}
	// Deliver as if it came over the backhaul from the AP's node.
	r.bh.Send(nodeAP0+backhaul.NodeID(ap), nodeCtrl, rep)
}

func (r *rig) run(d sim.Duration) { r.loop.Run(r.loop.Now().Add(d)) }

// lastOf returns the most recent message of type M delivered to AP i.
func lastOf[M packet.Message](r *rig, ap int) (M, bool) {
	var zero M
	for j := len(r.apMsgs[ap]) - 1; j >= 0; j-- {
		if m, ok := r.apMsgs[ap][j].(M); ok {
			return m, true
		}
	}
	return zero, false
}

var cli = packet.ClientMAC(0)

func TestInitialAdoptionSendsStart(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.csi(1, cli, 25)
	r.run(10 * sim.Millisecond)
	start, ok := lastOf[*packet.Start](r, 1)
	if !ok {
		t.Fatal("no Start sent on first CSI")
	}
	if start.Client != cli {
		t.Errorf("Start for %v", start.Client)
	}
	// Ack completes the adoption.
	r.bh.Send(nodeAP0+1, nodeCtrl, &packet.SwitchAck{Client: cli, APID: 1, SwitchID: start.SwitchID})
	r.run(5 * sim.Millisecond)
	if got := r.ctrl.ServingAP(cli); got != 1 {
		t.Errorf("ServingAP = %d, want 1", got)
	}
}

// adopt drives the initial adoption onto AP ap.
func (r *rig) adopt(t *testing.T, ap uint16, esnr float64) {
	t.Helper()
	r.csi(ap, cli, esnr)
	r.run(10 * sim.Millisecond)
	start, ok := lastOf[*packet.Start](r, int(ap))
	if !ok {
		t.Fatal("adoption Start missing")
	}
	r.bh.Send(nodeAP0+backhaul.NodeID(ap), nodeCtrl, &packet.SwitchAck{Client: cli, APID: ap, SwitchID: start.SwitchID})
	r.run(5 * sim.Millisecond)
}

func TestSwitchRequiresMargin(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SwitchMarginDB = 3
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 20)

	// Wait out hysteresis, then report a candidate only 1 dB better: no
	// switch.
	r.run(cfg.Hysteresis)
	r.csi(0, cli, 20)
	r.csi(1, cli, 21)
	r.run(10 * sim.Millisecond)
	if _, ok := lastOf[*packet.Stop](r, 0); ok {
		t.Fatal("switched on a 1 dB advantage despite 3 dB margin")
	}
	// 5 dB better: switch.
	r.run(cfg.Hysteresis)
	r.csi(0, cli, 20)
	r.csi(1, cli, 25)
	r.run(10 * sim.Millisecond)
	stop, ok := lastOf[*packet.Stop](r, 0)
	if !ok {
		t.Fatal("no Stop despite 5 dB advantage")
	}
	if stop.NewAPID != 1 {
		t.Errorf("switching to AP %d, want 1", stop.NewAPID)
	}
}

func TestHysteresisBlocksBackToBackSwitches(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 20)
	before := len(r.apMsgs[0])

	// Immediately report a much better AP: hysteresis (counted from the
	// adoption) must suppress the switch.
	r.csi(0, cli, 20)
	r.csi(1, cli, 30)
	r.run(5 * sim.Millisecond)
	for _, m := range r.apMsgs[0][before:] {
		if _, ok := m.(*packet.Stop); ok {
			t.Fatal("switch issued inside hysteresis window")
		}
	}
}

func TestStopRetransmission(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 20)
	r.run(cfg.Hysteresis)
	r.csi(0, cli, 10)
	r.csi(1, cli, 25)
	r.run(5 * sim.Millisecond)
	// AP0 never answers with a Start→Ack chain; the controller must
	// retransmit the stop after 30 ms.
	r.run(2 * cfg.StopTimeout)
	stops := 0
	for _, m := range r.apMsgs[0] {
		if _, ok := m.(*packet.Stop); ok {
			stops++
		}
	}
	if stops < 2 {
		t.Errorf("stop sent %d times, want ≥2 (retransmission)", stops)
	}
	if r.ctrl.Rec.Count(-1, trace.OpRetx) == 0 {
		t.Error("stop retransmissions not counted")
	}
}

func TestOneOutstandingSwitch(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 20)
	r.run(cfg.Hysteresis)
	r.csi(0, cli, 10)
	r.csi(1, cli, 25)
	r.run(5 * sim.Millisecond) // switch to 1 outstanding (no ack yet)
	// An even better AP appears; controller must NOT issue a second
	// switch while the first is unacknowledged.
	r.csi(2, cli, 35)
	r.run(5 * sim.Millisecond)
	if _, ok := lastOf[*packet.Stop](r, 1); ok {
		t.Fatal("second switch issued while first outstanding")
	}
	if n := r.ctrl.Rec.Count(-1, trace.OpIssue); n != 2 { // adoption + one switch
		t.Errorf("switches issued = %d, want 2", n)
	}
}

func TestDownlinkFanoutFreshnessAndIndexes(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 25)
	// APs 0 and 1 heard the client recently; AP 2 long ago.
	r.csi(0, cli, 25)
	r.csi(1, cli, 15)
	r.run(2 * sim.Millisecond)

	for i := 0; i < 5; i++ {
		r.ctrl.Downlink(packet.Packet{Src: packet.ServerIP, Dst: packet.ClientIP(0), Proto: packet.ProtoUDP, PayloadLen: 1000})
	}
	r.run(5 * sim.Millisecond)

	count := func(ap int) (n int, lastIdx uint16) {
		for _, m := range r.apMsgs[ap] {
			if d, ok := m.(*packet.DownlinkData); ok {
				n++
				lastIdx = d.Inner.Index
			}
		}
		return
	}
	n0, last0 := count(0)
	n1, _ := count(1)
	n2, _ := count(2)
	if n0 != 5 || n1 != 5 {
		t.Errorf("fanout to fresh APs = %d,%d; want 5,5", n0, n1)
	}
	if n2 != 0 {
		t.Errorf("fanout to stale AP = %d, want 0", n2)
	}
	if last0 != 4 {
		t.Errorf("last index = %d, want 4 (monotone from 0)", last0)
	}
	// After the window expires, only the serving AP receives.
	r.run(cfg.Window + 5*sim.Millisecond)
	r.ctrl.Downlink(packet.Packet{Src: packet.ServerIP, Dst: packet.ClientIP(0), Proto: packet.ProtoUDP, PayloadLen: 1000})
	r.run(5 * sim.Millisecond)
	n0b, _ := count(0)
	n1b, _ := count(1)
	if n0b != 6 || n1b != 5 {
		t.Errorf("stale-window fanout: serving got %d (want 6), other %d (want 5)", n0b, n1b)
	}
}

func TestDownlinkUnknownClientDropped(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.ctrl.Downlink(packet.Packet{Dst: packet.IP{9, 9, 9, 9}, PayloadLen: 100})
	r.run(5 * sim.Millisecond)
	if r.ctrl.DownlinkPackets != 0 {
		t.Error("unknown destination admitted")
	}
}

func TestUplinkDedup(t *testing.T) {
	r := newRig(t, DefaultConfig())
	p := packet.Packet{Src: packet.ClientIP(0), Dst: packet.ServerIP, IPID: 7, Proto: packet.ProtoUDP, PayloadLen: 100}
	// Same packet via three APs.
	for ap := uint16(0); ap < 3; ap++ {
		r.bh.Send(nodeAP0+backhaul.NodeID(ap), nodeCtrl, &packet.UplinkData{APID: ap, Client: cli, Inner: p})
	}
	// A different packet.
	p2 := p
	p2.IPID = 8
	r.bh.Send(nodeAP0, nodeCtrl, &packet.UplinkData{APID: 0, Client: cli, Inner: p2})
	r.run(10 * sim.Millisecond)

	if len(r.server) != 2 {
		t.Fatalf("server received %d packets, want 2 (dedup)", len(r.server))
	}
	if r.ctrl.UplinkDuplicates != 2 {
		t.Errorf("UplinkDuplicates = %d, want 2", r.ctrl.UplinkDuplicates)
	}
}

func TestUplinkDedupDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dedup = false
	r := newRig(t, cfg)
	p := packet.Packet{Src: packet.ClientIP(0), Dst: packet.ServerIP, IPID: 7, Proto: packet.ProtoUDP, PayloadLen: 100}
	for ap := uint16(0); ap < 3; ap++ {
		r.bh.Send(nodeAP0+backhaul.NodeID(ap), nodeCtrl, &packet.UplinkData{APID: ap, Client: cli, Inner: p})
	}
	r.run(10 * sim.Millisecond)
	if len(r.server) != 3 {
		t.Errorf("server received %d, want 3 with dedup off", len(r.server))
	}
}

func TestSelectionPolicies(t *testing.T) {
	for _, policy := range []SelectPolicy{SelectMedian, SelectMean, SelectLatest} {
		cfg := DefaultConfig()
		cfg.Policy = policy
		r := newRig(t, cfg)
		r.ctrl.RegisterClient(cli, packet.ClientIP(0))
		r.csi(2, cli, 22)
		r.run(10 * sim.Millisecond)
		if _, ok := lastOf[*packet.Start](r, 2); !ok {
			t.Errorf("policy %d: no adoption", policy)
		}
	}
}

func TestSwitchLatencyRecorded(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 20)
	r.run(cfg.Hysteresis)
	r.csi(0, cli, 10)
	r.csi(1, cli, 25)
	r.run(5 * sim.Millisecond)
	stop, ok := lastOf[*packet.Stop](r, 0)
	if !ok {
		t.Fatal("no switch")
	}
	// Complete the protocol after a simulated 12 ms AP-side delay.
	r.run(12 * sim.Millisecond)
	r.bh.Send(nodeAP0+1, nodeCtrl, &packet.SwitchAck{Client: cli, APID: 1, SwitchID: stop.SwitchID})
	r.run(5 * sim.Millisecond)
	done := r.ctrl.Rec.Spans().Completed()
	if len(done) != 1 {
		t.Fatalf("latencies recorded: %d", len(done))
	}
	if l := done[0].AckedAt.Sub(done[0].IssuedAt); l < 12*sim.Millisecond || l > 25*sim.Millisecond {
		t.Errorf("latency %v, want ≈12-18 ms", l)
	}
	// Adoption (from = -1) must not be counted.
	if n := r.ctrl.Rec.Count(-1, trace.OpAck); n != 2 {
		t.Errorf("acked = %d", n)
	}
}

func TestStaleAckIgnored(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.ctrl.RegisterClient(cli, packet.ClientIP(0))
	r.adopt(t, 0, 20)
	// An ack with a bogus switch id must not change serving.
	r.bh.Send(nodeAP0+2, nodeCtrl, &packet.SwitchAck{Client: cli, APID: 2, SwitchID: 999})
	r.run(5 * sim.Millisecond)
	if got := r.ctrl.ServingAP(cli); got != 0 {
		t.Errorf("stale ack moved serving to %d", got)
	}
}
