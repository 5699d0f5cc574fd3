package controller

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/federation"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/trace"
)

// segFabric maps the global AP ids of a four-AP segment starting at
// apBase onto that segment's backhaul nodes.
type segFabric struct{ apBase int }

func (f segFabric) APNode(id uint16) backhaul.NodeID {
	return nodeAP0 + backhaul.NodeID(int(id)-f.apBase)
}
func (segFabric) Server() backhaul.NodeID { return nodeServer }

// testLink is one trunk direction: FIFO with a fixed 50 µs delay, and a
// log of every message sent on it.
type testLink struct {
	loop    *sim.Loop
	deliver func(packet.Message)
	sent    []packet.Message
}

func (l *testLink) Deliver(m packet.Message) {
	l.sent = append(l.sent, m)
	l.loop.After(50*sim.Microsecond, func() { l.deliver(m) })
}

func (l *testLink) Up() bool { return true }

// handoffOf returns the handoff message m carries, looking inside a
// federation envelope.
func handoffOf(m packet.Message) (*packet.Handoff, bool) {
	if r, ok := m.(*packet.Routed); ok {
		m = r.Inner
	}
	h, ok := m.(*packet.Handoff)
	return h, ok
}

// count returns how many handoff messages of kind k the link carried.
func (l *testLink) count(k uint8) int {
	n := 0
	for _, m := range l.sent {
		if h, ok := handoffOf(m); ok && h.Kind == k {
			n++
		}
	}
	return n
}

// segment is one side of a pairRig: a controller with four capture-only
// APs on its own backhaul and its own flight recorder.
type segment struct {
	bh     *backhaul.Net
	ctrl   *Controller
	rec    *trace.Recorder
	apMsgs [4][]packet.Message
}

// pairRig wires the controllers of segments 0 (global APs 0–3) and 1
// (global APs 4–7) on one loop, over plain trunks or over two
// federation nodes. links[i] carries segment i's messages to the other.
type pairRig struct {
	loop  *sim.Loop
	segs  [2]*segment
	links [2]*testLink
}

func newPairRig(t *testing.T, federated bool) *pairRig {
	t.Helper()
	r := &pairRig{loop: sim.NewLoop()}
	topo := federation.NewTopology(2, nil, nil)
	for i := range r.segs {
		s := &segment{bh: backhaul.New(r.loop, backhaul.DefaultConfig()), rec: trace.NewRecorder(i, 256)}
		s.ctrl = New(r.loop, s.bh, nodeCtrl, segFabric{apBase: 4 * i}, 4*i, 4, DefaultConfig())
		s.ctrl.Rec = s.rec
		for ap := range s.apMsgs {
			ap := ap
			s.bh.AddNode(nodeAP0+backhaul.NodeID(ap), func(_ backhaul.NodeID, m packet.Message) {
				s.apMsgs[ap] = append(s.apMsgs[ap], m)
			})
		}
		s.bh.AddNode(nodeServer, func(backhaul.NodeID, packet.Message) {})
		if federated {
			s.ctrl.SetFederation(federation.NewNode(r.loop, i, topo, federation.Config{Enabled: true}))
		}
		r.segs[i] = s
	}
	for i := range r.links {
		src, dst := i, r.segs[1-i].ctrl
		r.links[i] = &testLink{loop: r.loop, deliver: func(m packet.Message) { dst.OnTrunk(src, m) }}
		r.segs[i].ctrl.ConnectTrunk(1-i, r.links[i])
	}
	return r
}

// csi reports a flat-SNR reading of cli from global AP ap to its
// segment's controller.
func (r *pairRig) csi(ap uint16, esnrDB float64) {
	s := r.segs[ap/4]
	rep := &packet.CSIReport{Client: cli, APID: ap, Time: r.loop.Now()}
	for i := 0; i < rf.NumSubcarriers; i++ {
		rep.SNRsDB[i] = esnrDB
	}
	s.bh.Send(nodeAP0+backhaul.NodeID(ap%4), nodeCtrl, rep)
}

func (r *pairRig) run(d sim.Duration) { r.loop.Run(r.loop.Now().Add(d)) }

// last returns the most recent message of type M delivered to global
// AP ap.
func last[M packet.Message](r *pairRig, ap uint16) (M, bool) {
	msgs := r.segs[ap/4].apMsgs[ap%4]
	for j := len(msgs) - 1; j >= 0; j-- {
		if m, ok := msgs[j].(M); ok {
			return m, true
		}
	}
	var zero M
	return zero, false
}

// TestCrossSegmentHandoff drives one handoff of cli from segment 0's
// AP 0 to segment 1's AP 5 on each trunk kind, through the one
// claim → stop → start → export → import → ack state machine.
func TestCrossSegmentHandoff(t *testing.T) {
	for _, federated := range []bool{false, true} {
		name := "direct"
		if federated {
			name = "federated"
		}
		t.Run(name, func(t *testing.T) {
			r := newPairRig(t, federated)
			s0, s1 := r.segs[0], r.segs[1]
			s0.ctrl.RegisterClient(cli, packet.ClientIP(0))
			r.csi(0, 20)
			r.run(10 * sim.Millisecond)
			start, ok := last[*packet.Start](r, 0)
			if !ok {
				t.Fatal("no adoption Start on AP 0")
			}
			s0.bh.Send(nodeAP0, nodeCtrl, &packet.SwitchAck{Client: cli, APID: 0, SwitchID: start.SwitchID})
			r.run(DefaultConfig().Hysteresis) // the owner's switch hysteresis gates claims

			// Segment 1 hears the client convincingly and claims it; the
			// owner stops AP 0 toward the remote segment.
			r.csi(5, 30)
			r.run(3 * sim.Millisecond)
			stop, ok := last[*packet.Stop](r, 0)
			if !ok || stop.NewAPID != packet.RemoteAPID {
				t.Fatalf("no remote Stop on AP 0 after the claim (got %+v)", stop)
			}
			// AP 0 froze at k and returns start(c, k) to its controller.
			const k = 7
			s0.bh.Send(nodeAP0, nodeCtrl, &packet.Start{Client: cli, Index: k, SwitchID: stop.SwitchID})
			r.run(2 * sim.Millisecond)
			if s0.ctrl.Owns(cli) || !s1.ctrl.Owns(cli) {
				t.Fatalf("after export: segment 0 owns %v, segment 1 owns %v", s0.ctrl.Owns(cli), s1.ctrl.Owns(cli))
			}
			exported, imported := s0.rec.Count(-1, trace.OpExport), s1.rec.Count(-1, trace.OpImport)
			if exported != 1 || imported != 1 {
				t.Fatalf("exported %d, imported %d; want 1, 1", exported, imported)
			}
			if got := r.links[1].count(packet.HandoffAck); got != 1 {
				t.Errorf("importer sent %d acks, want 1", got)
			}
			adopt, ok := last[*packet.Start](r, 5)
			if !ok {
				t.Fatal("importer sent no adoption Start to AP 5")
			}
			if adopt.Index != k {
				t.Errorf("adoption Start at index %d, want the stopped AP's k=%d", adopt.Index, k)
			}
			s1.bh.Send(nodeAP0+1, nodeCtrl, &packet.SwitchAck{Client: cli, APID: 5, SwitchID: adopt.SwitchID})
			r.run(2 * sim.Millisecond)
			if got := s1.ctrl.ServingAP(cli); got != 5 {
				t.Errorf("ServingAP = %d after the adoption ack, want 5", got)
			}
			exports := 0
			for _, rec := range s0.rec.Records() {
				if rec.Op == trace.OpExport {
					exports++
					if rec.B != 1 {
						t.Errorf("export record B = %d, want destination segment 1", rec.B)
					}
				}
			}
			if exports != 1 {
				t.Errorf("%d export records, want 1", exports)
			}

			// A duplicate export is re-acked without a second import.
			var export packet.Message
			for _, m := range r.links[0].sent {
				if h, ok := handoffOf(m); ok && h.Kind == packet.HandoffExport {
					export = m
				}
			}
			if export == nil {
				t.Fatal("no export on the trunk")
			}
			r.links[0].Deliver(export)
			r.run(2 * sim.Millisecond)
			if got := r.links[1].count(packet.HandoffAck); got != 2 {
				t.Errorf("%d acks after a duplicate export, want 2", got)
			}
			if n := s1.rec.Count(-1, trace.OpImport); n != 1 {
				t.Errorf("duplicate export imported again: %d imports", n)
			}

			// The exporter still hears the client at 30 dB. Over direct
			// trunks it never re-claims a client it exported; under
			// federation it must (the U-turn case).
			claims := r.links[0].count(packet.HandoffClaim)
			r.csi(0, 30)
			r.run(3 * sim.Millisecond)
			reclaims := r.links[0].count(packet.HandoffClaim) - claims
			if federated && reclaims == 0 {
				t.Error("federated exporter did not re-claim a client it hears at 30 dB")
			}
			if !federated && reclaims != 0 {
				t.Errorf("direct-trunk exporter sent %d claims for a client it exported", reclaims)
			}
		})
	}
}
