package deploy

import (
	"fmt"
	"math"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/baseline"
	"wgtt/internal/controller"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// Plane is the scheme-specific control half of one segment. It hides
// whether the segment runs the WGTT controller or a baseline bridge, so
// the network layer above never switches on the scheme per call.
type Plane interface {
	// Associate attaches a client at experiment start. For baseline
	// schemes it returns the radio node of the AP the client starts on
	// (the roamer's initial attachment); WGTT returns nil.
	Associate(clientID int, addr packet.MAC, ip packet.IP, pos rf.Position) *mac.Node
	// ServingAP reports the global AP id serving/associating the client
	// (-1 none) from the wire side's point of view.
	ServingAP(addr packet.MAC) int
	// ConnectNext wires the bidirectional trunk toward the next
	// segment's plane: fwd carries this plane's messages to next, rev
	// the reverse. Both planes must run the same scheme.
	ConnectNext(next Plane, fwd, rev *Trunk)
}

// segFabric resolves global AP ids onto one segment's backhaul. Ids
// outside the segment resolve to an unattached node (silently dropped)
// unless bridgeFallback routes them to the bridge, which relays
// over-the-DS reassociations across the trunk.
type segFabric struct {
	apBase, numAPs int
	bridgeFallback bool
}

// APNode implements the controller/ap/baseline Fabric interfaces.
func (f *segFabric) APNode(apID uint16) backhaul.NodeID {
	local := int(apID) - f.apBase
	if local < 0 || local >= f.numAPs {
		if f.bridgeFallback {
			return NodeController
		}
		return nodeInvalid
	}
	return NodeFirstAP + backhaul.NodeID(local)
}

// APByMAC implements ap.Fabric over the segment's AP range.
func (f *segFabric) APByMAC(addr packet.MAC) (backhaul.NodeID, bool) {
	for g := f.apBase; g < f.apBase+f.numAPs; g++ {
		if packet.APMAC(g) == addr {
			return NodeFirstAP + backhaul.NodeID(g-f.apBase), true
		}
	}
	return 0, false
}

// Controller implements ap.Fabric.
func (f *segFabric) Controller() backhaul.NodeID { return NodeController }

// Server implements controller.Fabric.
func (f *segFabric) Server() backhaul.NodeID { return NodeServer }

// Bridge implements baseline.Fabric.
func (f *segFabric) Bridge() backhaul.NodeID { return NodeController }

// WGTTPlane is one segment's WGTT control plane.
type WGTTPlane struct {
	Ctrl *controller.Controller
	APs  []*ap.AP
	seg  *Segment
}

// NewWGTTPlane builds the segment's controller and APs on its backhaul.
// AP ids (and their MACs, node names, and per-AP RNG streams) are
// global, so a one-segment deployment forks the root RNG in exactly the
// order the monolithic network did. rec is the segment's recorder,
// shared by the controller and every AP of the segment (they all run on
// the segment's loop). tel, when enabled, hangs the controller's and
// per-AP metrics under it.
func NewWGTTPlane(seg *Segment, loop *sim.Loop, medium *mac.Medium, rec *trace.Recorder,
	tel telemetry.Scope, rng *sim.RNG, apCfg ap.Config, ctrlCfg controller.Config) *WGTTPlane {
	fab := &segFabric{apBase: seg.APBase, numAPs: seg.Geom.NumAPs}
	p := &WGTTPlane{seg: seg}
	p.Ctrl = controller.New(loop, seg.Backhaul, NodeController, fab, seg.APBase, seg.Geom.NumAPs, ctrlCfg)
	p.Ctrl.Rec = rec
	p.Ctrl.SetTelemetry(tel.Sub("ctrl"))
	for i := 0; i < seg.Geom.NumAPs; i++ {
		g := seg.APBase + i
		a := ap.New(uint16(g), seg.APPosition(i), loop, medium, seg.Backhaul,
			NodeFirstAP+backhaul.NodeID(i), fab, apCfg, rng.Fork(fmt.Sprintf("ap%d", g)))
		a.Rec = rec
		a.SetTelemetry(tel.Sub(fmt.Sprintf("ap%d", g)))
		p.APs = append(p.APs, a)
	}
	return p
}

// Associate implements Plane: register addressing with the controller
// and replicate sta_info to the segment's APs (§4.3).
func (p *WGTTPlane) Associate(clientID int, addr packet.MAC, ip packet.IP, pos rf.Position) *mac.Node {
	p.Ctrl.RegisterClient(addr, ip)
	p.seg.Backhaul.Broadcast(NodeController, &packet.AssocState{
		Client: addr, IP: ip, AID: uint16(clientID + 1), State: packet.StateAssociated,
	})
	return nil
}

// ServingAP implements Plane.
func (p *WGTTPlane) ServingAP(addr packet.MAC) int { return p.Ctrl.ServingAP(addr) }

// ConnectNext implements Plane: a bidirectional controller trunk.
func (p *WGTTPlane) ConnectNext(next Plane, fwd, rev *Trunk) {
	q, ok := next.(*WGTTPlane)
	if !ok {
		panic("deploy: adjacent segments must run the same scheme")
	}
	p.Ctrl.ConnectTrunk(q.seg.Index, fwd)
	q.Ctrl.ConnectTrunk(p.seg.Index, rev)
	fwd.deliver = func(m packet.Message) { q.Ctrl.OnTrunk(p.seg.Index, m) }
	rev.deliver = func(m packet.Message) { p.Ctrl.OnTrunk(q.seg.Index, m) }
}

// ConnectExtra implements ExtraLinker: a bypass/ring trunk between
// non-adjacent WGTT segments. The wiring is identical to ConnectNext —
// only the federation router ever selects these links.
func (p *WGTTPlane) ConnectExtra(other Plane, fwd, rev *Trunk) {
	p.ConnectNext(other, fwd, rev)
}

// BaselinePlane is one segment's 802.11r control plane.
type BaselinePlane struct {
	Bridge *baseline.Bridge
	APs    []*baseline.AP
	seg    *Segment
}

// NewBaselinePlane builds the segment's bridge and APs on its backhaul.
func NewBaselinePlane(seg *Segment, loop *sim.Loop, medium *mac.Medium,
	rng *sim.RNG, apCfg baseline.APConfig) *BaselinePlane {
	fab := &segFabric{apBase: seg.APBase, numAPs: seg.Geom.NumAPs, bridgeFallback: true}
	p := &BaselinePlane{seg: seg}
	p.Bridge = baseline.NewBridge(loop, seg.Backhaul, NodeController, fab, NodeServer,
		seg.APBase, seg.Geom.NumAPs)
	for i := 0; i < seg.Geom.NumAPs; i++ {
		g := seg.APBase + i
		a := baseline.NewAP(uint16(g), seg.APPosition(i), loop, medium, seg.Backhaul,
			NodeFirstAP+backhaul.NodeID(i), fab, apCfg, rng.Fork(fmt.Sprintf("bap%d", g)))
		p.APs = append(p.APs, a)
	}
	return p
}

// Associate implements Plane: force-associate with the segment's
// nearest AP and return its radio node for the client's roamer.
func (p *BaselinePlane) Associate(clientID int, addr packet.MAC, ip packet.IP, pos rf.Position) *mac.Node {
	best, bestD := 0, math.Inf(1)
	for i := range p.APs {
		if d := p.seg.APPosition(i).Distance(pos); d < bestD {
			best, bestD = i, d
		}
	}
	p.APs[best].ForceAssociate(addr, ip)
	p.Bridge.RegisterClient(addr, ip)
	return p.APs[best].Node()
}

// ServingAP implements Plane (the bridge's wire-side view).
func (p *BaselinePlane) ServingAP(addr packet.MAC) int { return p.Bridge.AssociatedAP(addr) }

// ConnectNext implements Plane: a bidirectional bridge trunk.
func (p *BaselinePlane) ConnectNext(next Plane, fwd, rev *Trunk) {
	q, ok := next.(*BaselinePlane)
	if !ok {
		panic("deploy: adjacent segments must run the same scheme")
	}
	atP := p.Bridge.ConnectPeer(fwd)
	atQ := q.Bridge.ConnectPeer(rev)
	fwd.deliver = func(m packet.Message) { q.Bridge.OnTrunk(atQ, m) }
	rev.deliver = func(m packet.Message) { p.Bridge.OnTrunk(atP, m) }
}
