// Package controller implements the WGTT controller (§3.1): per-link
// sliding-window ESNR tracking from the APs' CSI reports, the
// median-ESNR AP selection rule with time hysteresis, the
// stop/start/ack switch issuing state machine with 30 ms retransmission,
// downlink index stamping and fan-out to candidate APs, and uplink packet
// de-duplication over the 48-bit (source IP, IP-ID) key.
package controller

import (
	"wgtt/internal/backhaul"
	"wgtt/internal/csi"
	"wgtt/internal/federation"
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// SelectPolicy chooses the statistic used to rank APs; Median is the
// paper's rule, the others exist for the ablation benches.
type SelectPolicy int

// Selection policies.
const (
	SelectMedian SelectPolicy = iota
	SelectMean
	SelectLatest
)

// Config tunes the controller.
type Config struct {
	// Window is the ESNR sliding-window span W (§3.1.1, Fig. 21: 10 ms).
	Window sim.Duration
	// Hysteresis is the minimum spacing between switch initiations for
	// one client (§5.3.3, Fig. 22: 40 ms default).
	Hysteresis sim.Duration
	// StopTimeout is the stop→ack retransmission timeout (§3.1.2: 30 ms).
	StopTimeout sim.Duration
	// SettleDelay batches CSI reports before a selection decision: the
	// reports that several APs generate for the same uplink frame reach
	// the controller spread over backhaul microseconds, and deciding on
	// the first arrival alone would compare windows of unequal
	// freshness.
	SettleDelay sim.Duration
	// MaxStopRetries bounds retransmissions before abandoning a switch.
	MaxStopRetries int
	// SwitchMarginDB requires a candidate AP's median ESNR to exceed
	// the serving AP's by this much before a switch is issued. The
	// 17 ms switching protocol must be amortized: flapping between two
	// statistically-equal APs buys nothing and mutes the downlink for
	// the protocol's duration each time.
	SwitchMarginDB float64
	// Policy is the ranking statistic.
	Policy SelectPolicy
	// Dedup enables uplink de-duplication (§3.2.3; ablation knob).
	Dedup bool
	// ClaimThresholdDB is the minimum median ESNR at which a controller
	// that does not own a client asks the owner to hand it over
	// (cross-segment handoff). Only consulted when trunks are connected.
	ClaimThresholdDB float64
	// HandoffBandLoMs/HandoffBandHiMs bound the expected stop→ack
	// execution time of a completed handoff (Table 1: 17–21 ms). When
	// HandoffBandHiMs > 0, a completed handoff outside [lo, hi] notes a
	// latency anomaly on the flight recorder. Purely observational.
	HandoffBandLoMs float64
	HandoffBandHiMs float64
}

// DefaultConfig returns the paper's controller settings.
func DefaultConfig() Config {
	return Config{
		Window:           10 * sim.Millisecond,
		Hysteresis:       40 * sim.Millisecond,
		StopTimeout:      30 * sim.Millisecond,
		SettleDelay:      1 * sim.Millisecond,
		SwitchMarginDB:   2,
		MaxStopRetries:   10,
		Policy:           SelectMedian,
		Dedup:            true,
		ClaimThresholdDB: 5,
	}
}

// Fabric resolves backhaul identities for the controller. AP ids are
// global deployment ids; the fabric maps them onto this segment's
// backhaul (ids outside the segment resolve to an unattached node, which
// the backhaul silently drops).
type Fabric interface {
	APNode(apID uint16) backhaul.NodeID
	Server() backhaul.NodeID
}

// trunk is the sending half of a link toward segment seg's controller.
type trunk struct {
	seg  int
	link federation.Link
}

type switchState struct {
	id      uint32
	from    int // -1 when adopting a client with no serving AP
	to      int
	remote  int // destination segment of a cross-segment handoff, -1 local
	retries int
	timer   *sim.Event
	issued  sim.Time
	held    []packet.Packet // downlink held unstamped during a remote stop
	// heldData is the stopped AP's pre-stamped backlog arriving while an
	// export resolves; it ships to the importer stamped. It is held by
	// value: the sends hand the trunk pointers into it, so once one has
	// gone nothing appends to or rewrites it, and it goes with the
	// switch.
	heldData []packet.DownlinkData
}

type clientState struct {
	addr        packet.MAC
	ip          packet.IP
	windows     []*csi.Window
	lastSeen    []sim.Time
	haveSeen    []bool
	serving     int // local AP index, -1 = none
	nextIndex   uint16
	sw          *switchState
	lastInit    sim.Time
	everInit    bool
	evalPending bool
	// Cross-segment state. owned marks this controller as the client's
	// home; states created purely from overheard CSI in a multi-segment
	// deployment stay unowned until an export arrives.
	owned bool
	// exportedSeg is the segment the client was last handed to (-1
	// none). Export chains are acyclic in time, so following them
	// always terminates at the current owner.
	exportedSeg int
	adoptAt     uint16
	hasAdoptAt  bool
	lastClaim   sim.Time
	everClaim   bool
	importedAt  sim.Time
	everImport  bool
}

// Controller is the WGTT controller.
type Controller struct {
	loop   *sim.Loop
	bh     *backhaul.Net
	self   backhaul.NodeID
	fabric Fabric
	cfg    Config
	numAPs int
	apBase int // global id of this segment's first AP
	trunks []trunk
	fed    *federation.Node

	// Rec is the segment's recorder, shared with its APs: each
	// switch-protocol step is one Record call, which counts the step and
	// folds the handoff spans (see trace.Recorder). The controller also
	// originates the causal trace ids that thread a handoff's records
	// together.
	Rec *trace.Recorder

	clients  map[packet.MAC]*clientState
	ipToMAC  map[packet.IP]packet.MAC
	dedup    map[packet.DedupKey]bool
	dedupQ   []packet.DedupKey
	switchID uint32

	// Send-side scratch: bh.Send serializes synchronously, so these
	// message shells are reused across the data-plane send sites.
	dlOut packet.DownlinkData
	sdOut packet.ServerData

	// Data-plane stats; the switch protocol's are Rec's counts.
	UplinkDelivered  int // de-duplicated uplink packets sent to the server
	UplinkDuplicates int
	DownlinkFanout   int // DownlinkData messages emitted
	DownlinkPackets  int // distinct packets admitted
}

// New creates the controller and attaches it to the backhaul at node
// self. apBase is the global deployment id of this segment's first AP
// (0 for a single-segment deployment); the controller's internal state
// is indexed by local AP position, with translation at every message
// boundary.
func New(loop *sim.Loop, bh *backhaul.Net, self backhaul.NodeID, fabric Fabric, apBase, numAPs int, cfg Config) *Controller {
	c := &Controller{
		loop:    loop,
		bh:      bh,
		self:    self,
		fabric:  fabric,
		cfg:     cfg,
		numAPs:  numAPs,
		apBase:  apBase,
		clients: make(map[packet.MAC]*clientState),
		ipToMAC: make(map[packet.IP]packet.MAC),
		dedup:   make(map[packet.DedupKey]bool),
	}
	bh.AddNode(self, c.OnBackhaul)
	return c
}

// SetTelemetry registers the controller's metrics under sc: views of
// its data-plane stats and of Rec's switch-protocol counts at the
// controller (node -1). Call once, before the simulation runs.
func (c *Controller) SetTelemetry(sc telemetry.Scope) {
	if !sc.Enabled() {
		return
	}
	sc.CounterFunc("uplink_delivered", func() int64 { return int64(c.UplinkDelivered) })
	sc.CounterFunc("uplink_dups", func() int64 { return int64(c.UplinkDuplicates) })
	sc.CounterFunc("downlink_pkts", func() int64 { return int64(c.DownlinkPackets) })
	sc.CounterFunc("downlink_fanout", func() int64 { return int64(c.DownlinkFanout) })
	view := func(name string, op trace.Op) {
		sc.CounterFunc(name, func() int64 { return int64(c.Rec.Count(-1, op)) })
	}
	view("switches_issued", trace.OpIssue)
	view("switches_acked", trace.OpAck)
	view("stop_retx", trace.OpRetx)
	view("switches_abandoned", trace.OpAbandon)
	view("handoff_claims", trace.OpClaim)
	view("handoffs_exported", trace.OpExport)
	view("handoffs_imported", trace.OpImport)
	sc.GaugeFunc("clients", func() float64 { return float64(len(c.clients)) })
	sc.GaugeFunc("switches_inflight", func() float64 {
		n := 0
		for _, cs := range c.clients {
			if cs.sw != nil {
				n++
			}
		}
		return float64(n)
	})
}

// SetFederation attaches the segment's federation node and makes this
// controller its local handler. Call once at build time, before trunks
// connect.
func (c *Controller) SetFederation(f *federation.Node) {
	c.fed = f
	f.Bind(c)
}

// Federation returns the attached federation node (nil when the layer
// is off).
func (c *Controller) Federation() *federation.Node { return c.fed }

// ConnectTrunk attaches the sending half of a trunk toward segment
// seg's controller; under federation the node routes over it too.
// Incoming trunk traffic is delivered by the remote side via OnTrunk.
func (c *Controller) ConnectTrunk(seg int, l federation.Link) {
	c.trunks = append(c.trunks, trunk{seg, l})
	if c.fed != nil {
		c.fed.AddLink(seg, l)
	}
}

// RegisterClient announces a client's addressing before any CSI arrives
// (association time), so downlink packets can be routed to its MAC.
func (c *Controller) RegisterClient(addr packet.MAC, ip packet.IP) {
	cs := c.stateFor(addr)
	first := !cs.owned
	cs.owned = true
	cs.ip = ip
	c.ipToMAC[ip] = addr
	if c.fed != nil && first {
		// Seed the replicated directory with the home segment.
		c.fed.Announce(addr)
	}
}

// ServingAP reports which AP currently serves the client as a global
// deployment id (-1 none).
func (c *Controller) ServingAP(addr packet.MAC) int {
	cs := c.clients[addr]
	if cs == nil || cs.serving < 0 {
		return -1
	}
	return c.apBase + cs.serving
}

// Owns reports whether this controller is the client's home.
func (c *Controller) Owns(addr packet.MAC) bool {
	cs := c.clients[addr]
	return cs != nil && cs.owned
}

// SwitchPending reports whether a switch (local or cross-segment) is in
// flight for the client.
func (c *Controller) SwitchPending(addr packet.MAC) bool {
	cs := c.clients[addr]
	return cs != nil && cs.sw != nil
}

func (c *Controller) stateFor(addr packet.MAC) *clientState {
	cs := c.clients[addr]
	if cs == nil {
		cs = &clientState{
			addr:     addr,
			windows:  make([]*csi.Window, c.numAPs),
			lastSeen: make([]sim.Time, c.numAPs),
			haveSeen: make([]bool, c.numAPs),
			serving:  -1,
			// Without trunks every overheard client is ours (the
			// single-controller deployment); with trunks, ownership
			// arrives only by registration or import.
			owned:       len(c.trunks) == 0,
			exportedSeg: -1,
		}
		for i := range cs.windows {
			cs.windows[i] = csi.NewWindow(c.cfg.Window)
		}
		c.clients[addr] = cs
	}
	return cs
}

// OnBackhaul handles AP and server messages.
func (c *Controller) OnBackhaul(from backhaul.NodeID, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.CSIReport:
		c.onCSI(m)
	case *packet.UplinkData:
		c.onUplink(m)
	case *packet.SwitchAck:
		c.onSwitchAck(m)
	case *packet.ServerData:
		c.Downlink(m.Inner)
	case *packet.AssocState:
		c.RegisterClient(m.Client, m.IP)
	case *packet.Start:
		c.onHandoffStart(m)
	case *packet.DownlinkData:
		c.onReturnedBacklog(m)
	}
}

// onCSI folds a CSI report into the client's per-AP window and re-runs AP
// selection. Report AP ids are global; reports from APs outside this
// segment are impossible (each AP reports to its own controller), but
// the range guard stays as a defensive boundary.
func (c *Controller) onCSI(m *packet.CSIReport) {
	local := int(m.APID) - c.apBase
	if local < 0 || local >= c.numAPs {
		return
	}
	cs := c.stateFor(m.Client)
	esnr := csi.EffectiveSNRdB(m.SNRsDB[:], csi.RefModulation)
	cs.windows[local].Add(m.Time, esnr)
	cs.lastSeen[local] = c.loop.Now()
	cs.haveSeen[local] = true
	if c.cfg.SettleDelay <= 0 {
		c.maybeSwitch(cs)
		return
	}
	if !cs.evalPending {
		cs.evalPending = true
		c.loop.After(c.cfg.SettleDelay, func() {
			cs.evalPending = false
			c.maybeSwitch(cs)
		})
	}
}

// score evaluates one AP's window under the configured policy.
func (c *Controller) score(cs *clientState, ap int) (float64, bool) {
	w := cs.windows[ap]
	switch c.cfg.Policy {
	case SelectMean:
		return w.MeanAt(c.loop.Now())
	case SelectLatest:
		r, ok := w.Latest()
		if !ok || c.loop.Now().Sub(r.Time) > c.cfg.Window {
			return 0, false
		}
		return r.ESNRdB, true
	default:
		return w.MedianAt(c.loop.Now())
	}
}

// maybeSwitch applies the selection rule: pick argmax over per-AP window
// scores, and if it differs from the serving AP (respecting hysteresis
// and the one-outstanding-switch rule) run the switching protocol.
func (c *Controller) maybeSwitch(cs *clientState) {
	if cs.sw != nil {
		return // §3.1.2 footnote: one switch at a time
	}
	if !cs.owned {
		// Not ours: instead of adopting locally, ask the neighbour that
		// owns the client to hand it over.
		c.maybeClaim(cs)
		return
	}
	best, bestScore, any := -1, 0.0, false
	for ap := 0; ap < c.numAPs; ap++ {
		s, ok := c.score(cs, ap)
		if !ok {
			continue
		}
		if !any || s > bestScore {
			best, bestScore, any = ap, s, true
		}
	}
	if !any || best == cs.serving {
		return
	}
	if cs.serving >= 0 {
		if s, ok := c.score(cs, cs.serving); ok && bestScore < s+c.cfg.SwitchMarginDB {
			return // not convincingly better than the serving AP
		}
	}
	if cs.everInit && c.loop.Now().Sub(cs.lastInit) < c.cfg.Hysteresis {
		return
	}
	c.issueSwitch(cs, best)
}

// issueSwitch starts the stop/start/ack protocol moving the client to AP
// `to`.
func (c *Controller) issueSwitch(cs *clientState, to int) {
	c.switchID++
	sw := &switchState{id: c.switchID, from: cs.serving, to: to, remote: -1, issued: c.loop.Now()}
	// Originate the causal trace: everything this switch schedules —
	// the stop send, its timers, the AP's ioctl callback, the ack —
	// inherits the register until it is restored below.
	prev := c.loop.SetTrace(c.traceID(sw.id))
	defer c.loop.SetTrace(prev)
	cs.sw = sw
	cs.lastInit = c.loop.Now()
	cs.everInit = true
	c.Rec.Record(trace.Record{At: c.loop.Now(), Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpIssue, Client: cs.addr,
		A: int32(c.traceAP(sw.from)), B: int32(c.traceAP(sw.to))})
	c.sendStop(cs, sw)
}

// traceAP renders a local AP index as its global id for trace lines (-1
// stays -1).
func (c *Controller) traceAP(local int) int {
	if local < 0 {
		return local
	}
	return c.apBase + local
}

// traceID derives the globally unique causal id for switch transaction
// id: this segment's first global AP id (+1, so segment 0's ids are
// nonzero) in the high word, the per-controller switch counter in the
// low. It is assigned unconditionally — flight recorder on or off — so
// event schedules and wire bytes never depend on observability state.
func (c *Controller) traceID(id uint32) uint64 {
	return uint64(c.apBase+1)<<32 | uint64(id)
}

// UnownedClients counts client states this controller tracks without
// owning (overheard across a segment boundary, or exported away) — the
// input to the unowned-spike anomaly trigger.
func (c *Controller) UnownedClients() int {
	n := 0
	for _, cs := range c.clients {
		if !cs.owned {
			n++
		}
	}
	return n
}

// sendStop transmits the protocol's first step — or, for a client with no
// serving AP yet, skips straight to start(c, k). A cross-segment handoff
// uses the RemoteAPID sentinel so the stopped AP returns start(c,k) to us
// instead of a local peer.
func (c *Controller) sendStop(cs *clientState, sw *switchState) {
	switch {
	case sw.remote >= 0:
		c.bh.Send(c.self, c.fabric.APNode(uint16(c.apBase+sw.from)), &packet.Stop{
			Client:   cs.addr,
			NewAPID:  packet.RemoteAPID,
			SwitchID: sw.id,
		})
	case sw.from < 0:
		// Initial adoption: no old AP holds a backlog; tell the new
		// AP to begin at the next index the controller will assign —
		// or, after an import, at the index the previous segment's
		// serving AP stopped at.
		idx := cs.nextIndex
		if cs.hasAdoptAt {
			idx = cs.adoptAt
		}
		c.bh.Send(c.self, c.fabric.APNode(uint16(c.apBase+sw.to)), &packet.Start{
			Client:   cs.addr,
			Index:    idx,
			SwitchID: sw.id,
		})
	default:
		c.bh.Send(c.self, c.fabric.APNode(uint16(c.apBase+sw.from)), &packet.Stop{
			Client:   cs.addr,
			NewAP:    packet.APMAC(c.apBase + sw.to),
			NewAPID:  uint16(c.apBase + sw.to),
			SwitchID: sw.id,
		})
	}
	sw.timer = c.loop.After(c.cfg.StopTimeout, func() { c.stopTimeout(cs, sw) })
}

// stopTimeout retransmits the stop (or abandons the switch after too many
// tries, so selection can start over).
func (c *Controller) stopTimeout(cs *clientState, sw *switchState) {
	if cs.sw != sw {
		return
	}
	if sw.retries >= c.cfg.MaxStopRetries {
		cs.sw = nil
		c.Rec.Record(trace.Record{At: c.loop.Now(), Trace: c.traceID(sw.id), SwitchID: sw.id,
			Node: -1, Op: trace.OpAbandon, Client: cs.addr, A: int32(sw.retries)})
		// An abandoned cross-segment handoff re-admits the downlink
		// packets held while the stop was in flight (stamped backlog
		// re-fans as-is).
		for i := range sw.heldData {
			c.fanOut(cs, sw.heldData[i].Inner)
		}
		for _, p := range sw.held {
			c.Downlink(p)
		}
		return
	}
	sw.retries++
	c.Rec.Record(trace.Record{At: c.loop.Now(), Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpRetx, Client: cs.addr, A: int32(sw.retries)})
	c.sendStop(cs, sw)
}

// onSwitchAck completes the protocol: the new AP is live.
func (c *Controller) onSwitchAck(m *packet.SwitchAck) {
	cs := c.stateFor(m.Client)
	sw := cs.sw
	if sw == nil || sw.id != m.SwitchID {
		return // stale ack from a retransmitted round
	}
	c.loop.Cancel(sw.timer)
	cs.serving = int(m.APID) - c.apBase
	cs.hasAdoptAt = false
	cs.sw = nil
	c.Rec.Record(trace.Record{At: c.loop.Now(), Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpAck, Client: cs.addr, A: int32(m.APID)})
	if sw.from >= 0 {
		// Only real handoffs count toward the protocol's execution
		// time; initial adoptions skip the stop leg.
		ms := float64(c.loop.Now().Sub(sw.issued)) / float64(sim.Millisecond)
		if hi := c.cfg.HandoffBandHiMs; hi > 0 && (ms < c.cfg.HandoffBandLoMs || ms > hi) {
			c.Rec.Anomaly(trace.Anomaly{At: c.loop.Now(), Kind: trace.AnomalyLatency,
				Trace: c.traceID(sw.id), Value: ms})
		}
	}
}

// Downlink admits one packet from the wired side: stamp the index and fan
// out to every candidate AP (those that heard the client within the
// selection window, plus the serving AP). Packets for a client exported
// to a neighbour are forwarded unstamped over the trunk (the wired
// server's route update races the export); packets arriving while a
// cross-segment stop is in flight are held so the importer stamps them.
func (c *Controller) Downlink(p packet.Packet) {
	addr, ok := c.ipToMAC[p.Dst]
	if !ok {
		return // unknown destination
	}
	cs := c.stateFor(addr)
	if !cs.owned {
		if cs.exportedSeg >= 0 {
			c.send(cs.exportedSeg, &packet.ServerData{Inner: p})
		}
		return
	}
	if cs.sw != nil && cs.sw.remote >= 0 {
		if len(cs.sw.held) < heldCap {
			cs.sw.held = append(cs.sw.held, p)
		}
		return
	}
	p.Index = cs.nextIndex
	cs.nextIndex = (cs.nextIndex + 1) & (packet.IndexMod - 1)
	c.DownlinkPackets++
	c.fanOut(cs, p)
}

// fanOut replicates one stamped packet to the candidate APs.
func (c *Controller) fanOut(cs *clientState, p packet.Packet) {
	now := c.loop.Now()
	for ap := 0; ap < c.numAPs; ap++ {
		fresh := cs.haveSeen[ap] && now.Sub(cs.lastSeen[ap]) <= c.cfg.Window
		if !fresh && ap != cs.serving {
			continue
		}
		c.DownlinkFanout++
		c.dlOut = packet.DownlinkData{Client: cs.addr, Inner: p}
		c.bh.Send(c.self, c.fabric.APNode(uint16(c.apBase+ap)), &c.dlOut)
	}
}

// heldCap bounds the packets held during a cross-segment stop; beyond it
// the transport's own loss recovery takes over.
const heldCap = 1024

// maybeClaim asks the owner for a client this controller hears
// convincingly. Claims are rate-limited by the switch hysteresis. Over
// direct trunks a claim goes out on every trunk and only the owner
// reacts; under federation the node looks the owner up and retries.
func (c *Controller) maybeClaim(cs *clientState) {
	if len(c.trunks) == 0 {
		return
	}
	// A direct-trunk exporter never re-claims a client it exported;
	// federation must (the U-turn case) — its re-locate goes through the
	// directory.
	if c.fed == nil && cs.exportedSeg >= 0 {
		return
	}
	now := c.loop.Now()
	if cs.everClaim && now.Sub(cs.lastClaim) < c.cfg.Hysteresis {
		return
	}
	best, any := 0.0, false
	for ap := 0; ap < c.numAPs; ap++ {
		if s, ok := c.score(cs, ap); ok && (!any || s > best) {
			best, any = s, true
		}
	}
	if !any || best < c.cfg.ClaimThresholdDB {
		return
	}
	cs.lastClaim, cs.everClaim = now, true
	// Claims precede any switch transaction, so there is no trace id
	// yet; the record rides whatever causal context is active (usually
	// none) and shows up as a standalone instant.
	c.Rec.Record(trace.Record{At: now, Trace: c.loop.Trace(), Node: -1,
		Op: trace.OpClaim, Client: cs.addr, A: int32(best)})
	if c.fed != nil {
		c.fed.Claim(cs.addr, best)
		return
	}
	for _, t := range c.trunks {
		t.link.Deliver(&packet.Handoff{Kind: packet.HandoffClaim, Client: cs.addr, Score: best})
	}
}

// send delivers msg to segment seg's controller: routed by the
// federation node, or over the direct trunk to that segment.
func (c *Controller) send(seg int, msg packet.Message) {
	if c.fed != nil {
		c.fed.Send(seg, msg)
		return
	}
	for _, t := range c.trunks {
		if t.seg == seg {
			t.link.Deliver(msg)
			return
		}
	}
}

// OnTrunk handles traffic arriving on the trunk from segment seg:
// federation envelopes go to the node's router, a direct trunk's
// handoff control and backlog to OnFederated.
func (c *Controller) OnTrunk(seg int, msg packet.Message) {
	if m, ok := msg.(*packet.Routed); ok && c.fed != nil {
		c.fed.OnRouted(m)
		return
	}
	c.OnFederated(seg, msg)
}

// onClaim is the owner's side of a cross-segment handoff: decide whether
// to hand a client to the claiming segment src. The remote score must
// beat the serving AP's by the switch margin, and the usual hysteresis /
// one-switch-at-a-time rules apply.
func (c *Controller) onClaim(src int, m *packet.Handoff) {
	cs := c.clients[m.Client]
	if cs == nil || !cs.owned || cs.sw != nil || (c.fed != nil && src == c.fed.Self()) {
		return
	}
	now := c.loop.Now()
	if cs.everInit && now.Sub(cs.lastInit) < c.cfg.Hysteresis {
		return
	}
	if cs.everImport && now.Sub(cs.importedAt) < c.cfg.Hysteresis {
		return
	}
	if cs.serving >= 0 {
		if s, ok := c.score(cs, cs.serving); ok && m.Score < s+c.cfg.SwitchMarginDB {
			return
		}
	}
	c.switchID++
	sw := &switchState{id: c.switchID, from: cs.serving, to: -1, remote: src, issued: now}
	prev := c.loop.SetTrace(c.traceID(sw.id))
	defer c.loop.SetTrace(prev)
	cs.sw = sw
	cs.lastInit, cs.everInit = now, true
	// A cross-segment handoff's span never completes here — the importer
	// finishes the protocol — so the export record drops it.
	c.Rec.Record(trace.Record{At: now, Trace: c.traceID(sw.id), SwitchID: sw.id,
		Node: -1, Op: trace.OpIssue, Client: cs.addr, A: int32(c.traceAP(sw.from)), B: -1})
	if cs.serving < 0 {
		// Nothing to stop locally: export immediately, resuming at the
		// next index this controller would have stamped.
		c.export(cs, sw, cs.nextIndex)
		return
	}
	c.sendStop(cs, sw)
}

// onHandoffStart receives start(c,k) from the AP a cross-segment stop
// froze, and completes the export.
func (c *Controller) onHandoffStart(m *packet.Start) {
	cs := c.clients[m.Client]
	if cs == nil || cs.sw == nil || cs.sw.id != m.SwitchID || cs.sw.remote < 0 {
		return
	}
	c.loop.Cancel(cs.sw.timer)
	c.export(cs, cs.sw, m.Index)
}

// export ships association + queue state to the claiming segment. The
// Export leads; held downlink follows once it resolves; the stopped
// AP's backlog (data-class behind its control-class Start) trails and
// is forwarded by onReturnedBacklog once ownership has flipped. A
// direct-trunk export is fire-and-forget and resolves at once. Under
// federation the node's reliable-transfer RPC resolves it, and
// ownership is retained until the importer acks — a trunk outage
// mid-handoff must not leave the client owned by nobody.
func (c *Controller) export(cs *clientState, sw *switchState, k uint16) {
	m := &packet.Handoff{
		Kind:     packet.HandoffExport,
		Client:   cs.addr,
		IP:       cs.ip,
		Index:    k,
		NextIdx:  cs.nextIndex,
		SwitchID: sw.id,
	}
	if c.fed != nil {
		c.fed.SendReliable(sw.remote, m, func(ok bool) { c.exportOutcome(cs, sw, ok) })
		return
	}
	c.send(sw.remote, m)
	c.exportOutcome(cs, sw, true)
}

// onReturnedBacklog forwards the stopped AP's drained cyclic backlog to
// the client's new segment. Backlog arriving while the export resolves
// is held (the destination is not yet committed); backlog after
// ownership flipped chases the export chain.
func (c *Controller) onReturnedBacklog(m *packet.DownlinkData) {
	cs := c.clients[m.Client]
	if cs == nil {
		return
	}
	// m is the backhaul's decode scratch; both the held queue and the
	// trunk retain messages past this call, so they keep copies.
	if cs.owned {
		if sw := cs.sw; sw != nil && sw.remote >= 0 && len(sw.heldData) < heldCap {
			sw.heldData = append(sw.heldData, *m)
		}
		return
	}
	if cs.exportedSeg >= 0 {
		d := *m
		c.send(cs.exportedSeg, &d)
	}
}

// importClient adopts a client exported by segment src: install its
// addressing, resume the stamping cursor, replicate sta_info to this
// segment's APs (and the wired server, which re-routes the downlink),
// ack, and immediately evaluate AP selection so an edge AP adopts the
// client at index k. Duplicate exports (a retransmission racing our
// ack) are re-acked idempotently.
func (c *Controller) importClient(src int, m *packet.Handoff) {
	cs := c.stateFor(m.Client)
	ack := &packet.Handoff{Kind: packet.HandoffAck, Client: m.Client, SwitchID: m.SwitchID}
	if cs.owned {
		c.send(src, ack)
		return
	}
	cs.owned = true
	cs.exportedSeg = -1
	cs.ip = m.IP
	c.ipToMAC[m.IP] = m.Client
	cs.nextIndex = m.NextIdx
	cs.adoptAt, cs.hasAdoptAt = m.Index, true
	cs.serving = -1
	// A fresh import gets the hysteresis grace before a counter-claim
	// can bounce the client straight back (tracked separately from
	// lastInit so the adoption switch below fires immediately).
	cs.importedAt, cs.everImport = c.loop.Now(), true
	// The trunk envelope carried the exporter's trace id across the
	// boundary; the import stitches onto that timeline.
	c.Rec.Record(trace.Record{At: c.loop.Now(), Trace: c.loop.Trace(), SwitchID: m.SwitchID,
		Node: -1, Op: trace.OpImport, Client: m.Client, A: int32(m.Index)})
	c.bh.Broadcast(c.self, &packet.AssocState{
		Client: m.Client,
		IP:     m.IP,
		State:  packet.StateAssociated,
	})
	c.send(src, ack)
	if c.fed != nil {
		c.fed.Announce(m.Client)
		c.fed.ClaimResolved(m.Client)
	}
	c.maybeSwitch(cs)
}

// onUplink de-duplicates a tunneled uplink packet and forwards it to the
// wired server.
func (c *Controller) onUplink(m *packet.UplinkData) {
	if c.cfg.Dedup {
		k := m.Inner.DedupKey()
		if c.dedup[k] {
			c.UplinkDuplicates++
			return
		}
		c.dedup[k] = true
		c.dedupQ = append(c.dedupQ, k)
		if len(c.dedupQ) > dedupCap {
			delete(c.dedup, c.dedupQ[0])
			c.dedupQ = c.dedupQ[1:]
		}
	}
	c.UplinkDelivered++
	c.sdOut = packet.ServerData{Inner: m.Inner}
	c.bh.Send(c.self, c.fabric.Server(), &c.sdOut)
}

// dedupCap bounds the de-duplication hashset, mirroring the
// implementation's bounded hashset (§3.2.2).
const dedupCap = 1 << 16
