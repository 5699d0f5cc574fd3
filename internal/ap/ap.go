// Package ap implements the WGTT access point (§3, §4.2): the per-client
// cyclic transmit queue fed by the controller's fan-out, the
// stop/start/ack switching state machine with its kernel index query, the
// A-MPDU transmit loop with Minstrel rate control, uplink tunneling and
// CSI reporting, and the monitor-mode block-ACK forwarding path.
package ap

import (
	"fmt"

	"wgtt/internal/backhaul"
	"wgtt/internal/csi"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/queue"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// Config tunes a WGTT AP.
type Config struct {
	// IoctlDelay is the mean latency of the stop(c) → start(c,k)
	// kernel round trip: the ioctl that reads the first-unsent index
	// plus the driver-queue filter walk (§3.1.2's "Implementing the
	// switch"). Jitter of ±IoctlJitter is added per query.
	IoctlDelay  sim.Duration
	IoctlJitter sim.Duration
	// BAWaitMargin pads the own-BA wait beyond SIFS + BA airtime.
	BAWaitMargin sim.Duration
	// BAForwardWait is the additional grace period for a block ACK
	// forwarded over the backhaul when the over-the-air copy was lost.
	BAForwardWait sim.Duration
	// ForwardBAs enables §3.2.1's block-ACK forwarding (ablation knob).
	ForwardBAs bool
	// FlushOnStart enables the start(c,k) queue flush; disabling it
	// reproduces a naive multi-AP scheme whose new AP replays its whole
	// buffered backlog (ablation knob).
	FlushOnStart bool
	// AckJitterMax spreads each AP's uplink block ACK by a uniform
	// random delay, the backoff the paper observed on the TP-Link APs
	// (§5.3.2) that keeps simultaneous acks from colliding.
	AckJitterMax sim.Duration
	// SeedRatesFromCSI enables the §8 future-work extension: on
	// adopting a client, seed Minstrel from the client's last measured
	// ESNR instead of starting from priors. Off by default (the paper
	// runs stock rate control).
	SeedRatesFromCSI bool
	// Rates is the PHY rate table the AP transmits with; nil means the
	// default 802.11n ladder. Core fills it from the channel backend.
	Rates *phy.Table
}

// DefaultConfig returns the testbed AP tuning. IoctlDelay is set so the
// end-to-end switching protocol lands in Table 1's 17–21 ms band.
func DefaultConfig() Config {
	return Config{
		IoctlDelay:    17 * sim.Millisecond,
		IoctlJitter:   6 * sim.Millisecond,
		BAWaitMargin:  80 * sim.Microsecond,
		BAForwardWait: 400 * sim.Microsecond,
		ForwardBAs:    true,
		FlushOnStart:  true,
		AckJitterMax:  40 * sim.Microsecond,
	}
}

// Fabric resolves identities on the backhaul; implemented by the core
// wiring.
type Fabric interface {
	// APNode returns the backhaul node of the AP with the given WGTT id.
	APNode(apID uint16) backhaul.NodeID
	// APByMAC resolves an AP's layer-2 address to its backhaul node.
	APByMAC(addr packet.MAC) (backhaul.NodeID, bool)
	// Controller returns the controller's backhaul node.
	Controller() backhaul.NodeID
}

// clientState is one client's transmit context at this AP.
type clientState struct {
	addr     packet.MAC
	cyclic   *queue.Cyclic
	agg      *mac.Aggregator
	rates    *phy.Minstrel
	serving  bool
	lastESNR float64
	hasESNR  bool
}

// awaitBA tracks the in-flight downlink aggregate.
type awaitBA struct {
	client *clientState
	sent   []mac.MPDU
	rate   phy.Rate
	// timer is the BA deadline, an AtKeep event the record re-arms for
	// every aggregate and for the ForwardBAs extension; onDeadline is
	// baDeadline for this record, bound once.
	timer      *sim.Event
	onDeadline func()
	extended   bool
	start      uint16 // BA window start (first MPDU seq)
}

// AP is one WGTT access point.
type AP struct {
	ID   uint16
	Addr packet.MAC

	loop   *sim.Loop
	medium *mac.Medium
	node   *mac.Node
	bh     *backhaul.Net
	self   backhaul.NodeID
	fabric Fabric
	cfg    Config
	rng    *sim.RNG

	// Rec is the segment's recorder, shared with its controller: each of
	// the AP's stop/start protocol steps is one Record call under the
	// causal trace id the controller's Stop/Start delivery carried.
	Rec *trace.Recorder

	// met holds telemetry handles resolved once by SetTelemetry; all
	// fields are nil (free no-ops) when telemetry is off.
	met apMetrics

	// Send-side scratch reused across bh.Send calls (which serialize
	// synchronously): one CSI report, one uplink tunnel shell and one
	// shell for the backlog a stop returns.
	csiOut packet.CSIReport
	upOut  packet.UplinkData
	dlOut  packet.DownlinkData

	clients map[packet.MAC]*clientState
	order   []packet.MAC // round-robin order
	rrNext  int
	busy    bool
	await   *awaitBA
	// baWait is the BA-wait record await points at while an aggregate
	// is in flight, reused for every aggregate (see txop); txopFn is
	// txop, bound at the first kick.
	baWait *awaitBA
	txopFn func()

	// Data-plane stats; the switch protocol's are Rec's counts.
	// RateMPDUs counts transmitted MPDUs per MCS (Fig. 16's link
	// bit-rate distribution).
	RateMPDUs   [phy.NumRates]int
	BAForwarded int // BAs we relayed for another AP
	BARecovered int // aggregates saved by a forwarded BA
}

// New creates an AP at the given roadside position and attaches it to the
// medium and backhaul.
func New(id uint16, pos rf.Position, loop *sim.Loop, medium *mac.Medium, bh *backhaul.Net, self backhaul.NodeID, fabric Fabric, cfg Config, rng *sim.RNG) *AP {
	cfg.Rates = cfg.Rates.OrDefault()
	a := &AP{
		ID:      id,
		Addr:    packet.APMAC(int(id)),
		loop:    loop,
		medium:  medium,
		bh:      bh,
		self:    self,
		fabric:  fabric,
		cfg:     cfg,
		rng:     rng,
		clients: make(map[packet.MAC]*clientState),
	}
	a.node = &mac.Node{
		Name: fmt.Sprintf("ap%d", id),
		Addr: a.Addr,
		Pos:  func() rf.Position { return pos },
		Recv: (*apReceiver)(a),
	}
	medium.Register(a.node)
	bh.AddNode(self, a.OnBackhaul)
	return a
}

// apMetrics are the AP's resolved registry handles.
type apMetrics struct {
	aggregates  *telemetry.Counter
	mpdus       *telemetry.Counter
	mpdusRetx   *telemetry.Counter
	mpdusDrop   *telemetry.Counter
	flushedPkts *telemetry.Counter
	fwdBytes    *telemetry.Counter
	uplinkMPDUs *telemetry.Counter
	csiReports  *telemetry.Counter
}

// SetTelemetry resolves this AP's metric handles under sc (e.g.
// "seg0/ap3") and registers views of its BA stats and of Rec's stop and
// start-rx counts at this AP. Call once at build time; a zero scope
// leaves telemetry off at zero hot-path cost.
func (a *AP) SetTelemetry(sc telemetry.Scope) {
	if !sc.Enabled() {
		return
	}
	a.met = apMetrics{
		aggregates:  sc.Counter("aggregates"),
		mpdus:       sc.Counter("mpdus"),
		mpdusRetx:   sc.Counter("mpdus_retx"),
		mpdusDrop:   sc.Counter("mpdus_dropped"),
		flushedPkts: sc.Counter("flushed_pkts"),
		fwdBytes:    sc.Counter("forward_bytes"),
		uplinkMPDUs: sc.Counter("uplink_mpdus"),
		csiReports:  sc.Counter("csi_reports"),
	}
	sc.CounterFunc("ba_forwarded", func() int64 { return int64(a.BAForwarded) })
	sc.CounterFunc("ba_recovered", func() int64 { return int64(a.BARecovered) })
	sc.CounterFunc("stops", func() int64 { return int64(a.Rec.Count(int(a.ID), trace.OpStop)) })
	sc.CounterFunc("switches", func() int64 { return int64(a.Rec.Count(int(a.ID), trace.OpStartRx)) })
	depth := func() float64 {
		total := 0
		for _, addr := range a.order {
			total += a.clients[addr].cyclic.Len()
		}
		return float64(total)
	}
	sc.GaugeFunc("queue_depth", depth)
	sc.Series("queue_depth_100ms", depth)
	sc.GaugeFunc("queue_stale_drops", func() float64 {
		total := 0
		for _, addr := range a.order {
			total += a.clients[addr].cyclic.Stats.StaleDrops
		}
		return float64(total)
	})
	sc.GaugeFunc("agg_abandoned", func() float64 {
		total := 0
		for _, addr := range a.order {
			total += a.clients[addr].agg.Abandoned
		}
		return float64(total)
	})
}

// Node exposes the AP's radio for channel wiring.
func (a *AP) Node() *mac.Node { return a.node }

// Serving reports whether this AP currently serves the client.
func (a *AP) Serving(client packet.MAC) bool {
	cs := a.clients[client]
	return cs != nil && cs.serving
}

// Backlog reports the client's buffered downlink packets here.
func (a *AP) Backlog(client packet.MAC) int {
	cs := a.clients[client]
	if cs == nil {
		return 0
	}
	return cs.cyclic.Len()
}

// stateFor returns (creating on demand) the client's context.
func (a *AP) stateFor(addr packet.MAC) *clientState {
	cs := a.clients[addr]
	if cs == nil {
		cs = &clientState{
			addr:   addr,
			cyclic: queue.NewCyclic(),
			agg:    mac.NewAggregator(),
			rates:  phy.NewMinstrelFor(a.cfg.Rates, a.rng.Fork("minstrel"+addr.String())),
		}
		a.clients[addr] = cs
		a.order = append(a.order, addr)
	}
	return cs
}

// OnBackhaul handles controller/peer messages.
func (a *AP) OnBackhaul(from backhaul.NodeID, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.DownlinkData:
		cs := a.stateFor(m.Client)
		cs.cyclic.Insert(m.Inner)
		if cs.serving {
			a.kick()
		}
	case *packet.Stop:
		a.onStop(m)
	case *packet.Start:
		a.onStart(m)
	case *packet.AssocState:
		// Replicated sta_info: be ready to serve this client.
		a.stateFor(m.Client)
	case *packet.BAForward:
		a.onForwardedBA(m)
	}
}

// onStop implements switching-protocol step 2: freeze the client's
// transmit path, query the first-unsent index from the kernel, and hand
// off to the next AP with start(c,k).
func (a *AP) onStop(m *packet.Stop) {
	cs := a.stateFor(m.Client)
	cs.serving = false
	newAP := int32(m.NewAPID)
	if m.NewAPID == packet.RemoteAPID {
		newAP = -1
	}
	a.Rec.Record(trace.Record{At: a.loop.Now(), Trace: a.loop.Trace(), SwitchID: m.SwitchID,
		Node: int16(a.ID), Op: trace.OpStop, Client: m.Client, A: newAP})
	// Pending retries stay: they model frames already committed to the
	// NIC hardware queue, which §3.1.2 lets AP1 drain onto the air even
	// after the stop (the ~6 ms the paper accepts as minimal loss).
	// They are bounded by the MAC retry limit.

	// The kernel ioctl + driver filter walk takes milliseconds; the
	// current in-flight aggregate (hardware queue) still drains
	// meanwhile, exactly as §3.1.2 tolerates.
	delay := a.cfg.IoctlDelay
	if a.cfg.IoctlJitter > 0 {
		delay += sim.Duration((a.rng.Float64()*2 - 1) * float64(a.cfg.IoctlJitter))
	}
	if delay < 0 {
		delay = 0
	}
	a.loop.After(delay, func() {
		k := cs.cyclic.Head()
		if m.NewAPID == packet.RemoteAPID {
			// The successor AP is in another segment: report start(c,k)
			// to our controller for trunk forwarding, then drain the
			// remaining backlog up the backhaul so the next segment's
			// APs can buffer it. The Start rides the control class and
			// overtakes the drained data frames.
			a.Rec.Record(trace.Record{At: a.loop.Now(), Trace: a.loop.Trace(), SwitchID: m.SwitchID,
				Node: int16(a.ID), Op: trace.OpStart, Client: m.Client, A: int32(k), B: -1})
			a.bh.Send(a.self, a.fabric.Controller(), &packet.Start{
				Client:   m.Client,
				Index:    k,
				SwitchID: m.SwitchID,
			})
			for {
				p, ok := cs.cyclic.Pop()
				if !ok {
					break
				}
				a.met.fwdBytes.Add(int64(p.WireLen()))
				a.dlOut = packet.DownlinkData{Client: m.Client, Inner: p}
				a.bh.Send(a.self, a.fabric.Controller(), &a.dlOut)
			}
			return
		}
		a.Rec.Record(trace.Record{At: a.loop.Now(), Trace: a.loop.Trace(), SwitchID: m.SwitchID,
			Node: int16(a.ID), Op: trace.OpStart, Client: m.Client, A: int32(k), B: int32(m.NewAPID)})
		a.bh.Send(a.self, a.fabric.APNode(m.NewAPID), &packet.Start{
			Client:   m.Client,
			Index:    k,
			SwitchID: m.SwitchID,
		})
	})
}

// onStart implements step 3: adopt the hand-off at index k, ack the
// controller, and start transmitting from our own cyclic queue.
func (a *AP) onStart(m *packet.Start) {
	cs := a.stateFor(m.Client)
	flushed := 0
	if a.cfg.FlushOnStart {
		before := cs.cyclic.Stats.Flushed
		cs.cyclic.SetHead(m.Index)
		if flushed = cs.cyclic.Stats.Flushed - before; flushed > 0 {
			a.met.flushedPkts.Add(int64(flushed))
		}
	}
	if a.cfg.SeedRatesFromCSI && cs.hasESNR {
		cs.rates.Seed(cs.lastESNR)
	}
	cs.serving = true
	a.Rec.Record(trace.Record{At: a.loop.Now(), Trace: a.loop.Trace(), SwitchID: m.SwitchID,
		Node: int16(a.ID), Op: trace.OpStartRx, Client: m.Client, A: int32(flushed)})
	a.bh.Send(a.self, a.fabric.Controller(), &packet.SwitchAck{
		Client:   m.Client,
		APID:     a.ID,
		SwitchID: m.SwitchID,
	})
	a.kick()
}

// onForwardedBA merges a block ACK another AP overheard (§3.2.1). Only
// useful while the matching aggregate is still awaiting acknowledgement;
// duplicates and stale copies are dropped, as the paper's AP does.
func (a *AP) onForwardedBA(m *packet.BAForward) {
	aw := a.await
	if aw == nil || aw.client.addr != m.Client || aw.start != m.StartSeq {
		return
	}
	a.BARecovered++
	a.finishAggregate(aw, mac.BAInfo{StartSeq: m.StartSeq, Bitmap: m.Bitmap})
}

// kick starts the downlink transmit loop if idle and anything is pending.
func (a *AP) kick() {
	if a.busy {
		return
	}
	if a.nextServableIdx() < 0 {
		return
	}
	a.busy = true
	if a.txopFn == nil {
		a.txopFn = a.txop
	}
	a.medium.Contend(a.node, phy.CWMin, a.txopFn)
}

// nextServableIdx finds the next round-robin client with pending traffic.
func (a *AP) nextServableIdx() int {
	n := len(a.order)
	for i := 0; i < n; i++ {
		idx := (a.rrNext + i) % n
		cs := a.clients[a.order[idx]]
		// Retries drain even after a stop (hardware-queue drain);
		// fresh cyclic-queue packets go out only while serving.
		if cs.agg.PendingRetries() > 0 || (cs.serving && cs.cyclic.Len() > 0) {
			return idx
		}
	}
	return -1
}

// txop transmits one aggregate to the next servable client.
func (a *AP) txop() {
	idx := a.nextServableIdx()
	if idx < 0 {
		a.busy = false
		return
	}
	a.rrNext = (idx + 1) % len(a.order)
	cs := a.clients[a.order[idx]]
	rate := cs.rates.Select(a.loop.Now())
	resentBefore := cs.agg.Resent
	mpdus := cs.agg.Build(rate, func() (packet.Packet, bool) {
		return cs.cyclic.Pop()
	})
	if len(mpdus) == 0 {
		a.busy = false
		return
	}
	a.met.mpdusRetx.Add(int64(cs.agg.Resent - resentBefore))
	t := a.medium.NewTransmission()
	t.Tx = a.node
	t.Dst = cs.addr
	t.Type = mac.FrameData
	t.Rate = rate
	t.MPDUs = mpdus
	a.medium.Transmit(t)
	a.met.aggregates.Inc()
	a.met.mpdus.Add(int64(len(mpdus)))
	a.RateMPDUs[rate.MCS] += len(mpdus)
	// One aggregate is in flight at a time (busy), and finishAggregate,
	// the only path that settles it, cancels its timer if it has not
	// fired, so the previous use of the record and of its timer event is
	// over and both are reused.
	aw := a.baWait
	if aw == nil {
		aw = &awaitBA{}
		aw.onDeadline = func() { a.baDeadline(aw) }
		a.baWait = aw
	}
	aw.client, aw.sent, aw.rate, aw.start, aw.extended = cs, mpdus, rate, mpdus[0].Seq, false
	deadline := t.End.Add(phy.SIFS + phy.BlockAckAirtime + a.cfg.BAWaitMargin)
	aw.timer = a.loop.Rearm(aw.timer, deadline, aw.onDeadline)
	a.await = aw
}

// baDeadline fires when the client's own BA did not arrive in time. With
// BA forwarding on, wait a little longer for a copy relayed over the
// backhaul before declaring the whole aggregate lost.
func (a *AP) baDeadline(aw *awaitBA) {
	if a.await != aw {
		return
	}
	if a.cfg.ForwardBAs && !aw.extended {
		aw.extended = true
		aw.timer = a.loop.Rearm(aw.timer, a.loop.Now().Add(a.cfg.BAForwardWait), aw.onDeadline)
		return
	}
	a.finishAggregate(aw, mac.BAInfo{StartSeq: aw.start, Bitmap: 0})
}

// finishAggregate settles the in-flight aggregate with the given
// acknowledgement state and resumes the loop.
func (a *AP) finishAggregate(aw *awaitBA, ba mac.BAInfo) {
	if a.await != aw {
		return
	}
	a.await = nil
	a.loop.Cancel(aw.timer)
	res := aw.client.agg.ProcessBA(aw.sent, ba)
	if n := res.DroppedCount; n > 0 {
		a.met.mpdusDrop.Add(int64(n))
	}
	aw.client.rates.Feedback(a.loop.Now(), aw.rate, len(aw.sent), res.AckedCount)
	// If the client was stopped while this aggregate flew, its retries
	// must not survive: the new AP owns those indexes.
	if !aw.client.serving {
		aw.client.agg.DropRetries()
	}
	a.busy = false
	a.kick()
}

// apReceiver adapts AP to mac.Receiver.
type apReceiver AP

// OnReceive implements mac.Receiver: uplink data, the client's downlink
// BAs, and overheard BAs destined to other APs.
func (ar *apReceiver) OnReceive(t *mac.Transmission, det mac.Detection) {
	a := (*AP)(ar)
	switch t.Type {
	case mac.FrameData:
		if t.Dst == packet.BSSID {
			a.onUplinkData(t, det)
		}
	case mac.FrameBlockAck:
		if det.Collided {
			return
		}
		if t.Dst == a.Addr {
			// The client acking our aggregate. Its BA is an uplink
			// transmission, so it also yields a CSI reading.
			a.reportCSI(t.Tx.Addr, det)
			if aw := a.await; aw != nil && aw.client.addr == t.Tx.Addr && aw.start == t.BA.StartSeq {
				a.finishAggregate(aw, t.BA)
			}
			return
		}
		// Monitor mode: a BA a client sent to another AP. It is still
		// a CSI sample of our own link to that client, and worth
		// relaying to its addressee (§3.2.1).
		if dst, ok := a.fabric.APByMAC(t.Dst); ok {
			a.reportCSI(t.Tx.Addr, det)
			if a.cfg.ForwardBAs {
				a.BAForwarded++
				a.bh.Send(a.self, dst, &packet.BAForward{
					Client:   t.Tx.Addr,
					FromAPID: a.ID,
					StartSeq: t.BA.StartSeq,
					Bitmap:   t.BA.Bitmap,
				})
			}
		}
	}
}

// reportCSI encapsulates one uplink frame's CSI measurement to the
// controller, as the Atheros CSI tool does (§4.2), and retains the
// latest effective SNR locally for the rate-seeding extension.
func (a *AP) reportCSI(client packet.MAC, det mac.Detection) {
	a.met.csiReports.Inc()
	cs := a.stateFor(client)
	cs.lastESNR = csi.EffectiveSNRdB(det.SNRsDB[:], csi.RefModulation)
	cs.hasESNR = true
	rep := &a.csiOut
	rep.Client = client
	rep.APID = a.ID
	rep.Time = a.loop.Now()
	rep.SNRsDB = det.SNRsDB
	a.bh.Send(a.self, a.fabric.Controller(), rep)
}

// onUplinkData tunnels decoded client packets to the controller, reports
// CSI, and acknowledges over the air.
func (a *AP) onUplinkData(t *mac.Transmission, det mac.Detection) {
	if det.Collided {
		return
	}
	anyOK := false
	for i := range t.MPDUs {
		if !det.OK[i] {
			continue
		}
		anyOK = true
		a.met.uplinkMPDUs.Inc()
		a.upOut = packet.UplinkData{
			APID:   a.ID,
			Client: t.Tx.Addr,
			Inner:  t.MPDUs[i].Pkt,
		}
		a.bh.Send(a.self, a.fabric.Controller(), &a.upOut)
	}
	if !anyOK {
		return
	}
	// One CSI report per received PPDU (§3.1.1).
	a.reportCSI(t.Tx.Addr, det)

	// Every associated AP acks what it decoded (§5.3.2). The serving AP
	// answers immediately at SIFS; the others apply the hardware's
	// microsecond backoff and a CCA check, so they only ack when nobody
	// else already is — the behaviour the paper infers from the
	// TP-Link's HT-immediate BA and credits for the near-absence of ack
	// collisions (Table 3).
	ba := mac.BuildBitmap(t.MPDUs, det.OK)
	cs := a.clients[t.Tx.Addr]
	serving := cs != nil && cs.serving
	delay := phy.SIFS
	if !serving {
		// Quantized microsecond backoff starting 2 µs after SIFS, so
		// a serving AP's immediate ack is always visible to the CCA
		// check; ties between two backers-off inside the CCA blind
		// window are what collide.
		slots := 2 + a.rng.Intn(int(a.cfg.AckJitterMax/sim.Microsecond))
		delay += sim.Duration(slots) * sim.Microsecond
	}
	// t is pooled and may be recycled before the SIFS expires; copy the
	// address out instead of holding the transmission.
	dst := t.Tx.Addr
	a.loop.After(delay, func() {
		if !serving && a.medium.BlockAckOnAir(a.node) {
			return // someone already acked; stay quiet
		}
		bat := a.medium.NewTransmission()
		bat.Tx = a.node
		bat.Dst = dst
		bat.Type = mac.FrameBlockAck
		bat.Rate = a.cfg.Rates.Basic
		bat.BA = ba
		a.medium.Transmit(bat)
	})
}

// MinstrelProb exposes the rate controller's delivery estimate for tests
// and diagnostics.
func (a *AP) MinstrelProb(client packet.MAC, mcs int) (float64, bool) {
	cs := a.clients[client]
	if cs == nil || !cs.serving {
		return 0, false
	}
	return cs.rates.Prob(mcs), true
}

// AggSnapshot is one client's aggregation accounting at this AP. While
// no aggregate is in flight, every first-transmitted MPDU is in exactly
// one terminal or waiting state, so
//
//	Sent == Acked + Dropped + Abandoned + Pending
//
// holds across any number of stop/start/ack handoff rounds (Abandoned
// counts retries discarded when a stop froze this AP's transmit path).
type AggSnapshot struct {
	Sent      int // MPDUs first-transmitted
	Resent    int // retransmissions (not first transmissions)
	Acked     int
	Dropped   int // exceeded the MAC retry limit
	Abandoned int // retries discarded on handoff stop
	Pending   int // awaiting retransmission
}

// AggStats exposes the per-client aggregation counters (diagnostics).
func (a *AP) AggStats(client packet.MAC) AggSnapshot {
	cs := a.clients[client]
	if cs == nil {
		return AggSnapshot{}
	}
	return AggSnapshot{
		Sent:      cs.agg.Sent,
		Resent:    cs.agg.Resent,
		Acked:     cs.agg.Acked,
		Dropped:   cs.agg.Dropped,
		Abandoned: cs.agg.Abandoned,
		Pending:   cs.agg.PendingRetries(),
	}
}

// DebugState exposes internal flags for test diagnostics.
func (a *AP) DebugState(client packet.MAC) (busy bool, awaiting bool, backlog int, retries int, serving bool) {
	busy = a.busy
	awaiting = a.await != nil
	if cs := a.clients[client]; cs != nil {
		backlog = cs.cyclic.Len()
		retries = cs.agg.PendingRetries()
		serving = cs.serving
	}
	return
}
