// Package client implements the mobile station: a single-radio 802.11n
// client that receives downlink aggregates (answering with block ACKs),
// transmits uplink data addressed to the network's BSSID, and emits the
// periodic uplink frames from which the APs measure CSI.
//
// The same client runs under both WGTT and Enhanced 802.11r; the roaming
// schemes differ only in the AcceptFrom filter (WGTT's APs share one
// BSSID, so the client accepts data from any of them) and in the hooks the
// baseline's roamer attaches to beacons.
package client

import (
	"fmt"

	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/queue"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Config tunes a client.
type Config struct {
	// KeepaliveInterval paces null/keepalive uplink frames when the
	// uplink is otherwise idle, so APs keep measuring CSI. Zero
	// disables.
	KeepaliveInterval sim.Duration
	// UplinkQueueCap bounds the uplink socket buffer (packets).
	UplinkQueueCap int
	// BAWaitMargin pads the block-ACK wait beyond SIFS+BA airtime.
	BAWaitMargin sim.Duration
	// Rates is the PHY rate table the client transmits with; nil means
	// the default 802.11n ladder. Core fills it from the channel
	// backend.
	Rates *phy.Table
}

// DefaultConfig returns the standard client tuning.
func DefaultConfig() Config {
	return Config{
		KeepaliveInterval: 25 * sim.Millisecond,
		UplinkQueueCap:    1000,
		BAWaitMargin:      60 * sim.Microsecond,
	}
}

// Client is one mobile station.
type Client struct {
	ID   int
	Addr packet.MAC
	IP   packet.IP

	loop   *sim.Loop
	medium *mac.Medium
	node   *mac.Node
	traj   mobility.Trajectory
	cfg    Config
	rng    *sim.RNG

	// alive, when set, is consulted by deferred radio callbacks (contention
	// grants, BA responses) to detect that the client has migrated to
	// another segment domain since the callback was scheduled. The closure
	// is supplied by the owning domain and must only touch that domain's
	// state. Nil where the client never migrates (a one-domain network).
	alive func() bool
	// keepaliveEv is the pending keepalive timer, canceled on Detach.
	keepaliveEv *sim.Event
	// keepaliveFn is keepalive, bound when New first schedules it, and
	// txopFn the grant callback txopCB binds, so re-arming either
	// allocates nothing.
	keepaliveFn func()
	txopFn      func()
	// tasks are the migration-safe timers scheduled through Sched:
	// Detach cancels their loop events, Attach re-arms them on the new
	// owner's loop (in insertion order, no earlier than its now).
	tasks []*task

	// AcceptFrom filters downlink data by transmitter: under WGTT every
	// AP shares the BSSID, so it returns true for all APs; under the
	// baseline only the associated AP's frames are accepted.
	AcceptFrom func(tx *mac.Node) bool
	// UplinkDst is the layer-2 destination of uplink data: the shared
	// BSSID under WGTT (any AP takes the frame), or the associated AP's
	// address under the baseline.
	UplinkDst packet.MAC
	// OnPacket delivers de-duplicated uplink-layer packets (the
	// client's network stack).
	OnPacket func(p packet.Packet)
	// OnBeacon lets a roamer observe beacons (tx node, ESNR as the RSSI
	// proxy).
	OnBeacon func(tx *mac.Node, esnrDB float64)
	// OnMgmt lets a roamer observe management frames addressed to us.
	OnMgmt func(tx *mac.Node, info mac.MgmtInfo)

	// Uplink transmit path.
	upQ      *queue.FIFO[packet.Packet]
	agg      *mac.Aggregator
	rates    phy.Controller
	busy     bool
	await    *awaitBA
	lastTxAt sim.Time
	// baWait is the BA-wait record await points at while an aggregate
	// is in flight, reused for every aggregate (see txop).
	baWait *awaitBA

	// Downlink receive path: the MAC-level filter of recent
	// (transmitter, seq) pairs and the IP-level one of recent packets.
	dupMAC dupWindow[dupKey]
	dupIP  dupWindow[packet.DedupKey]

	ipid uint16

	// Stats.
	RxMPDUs        int
	RxDuplicates   int
	RxDupMAC       int
	RxDupIP        int
	RxBytes        int64
	UplinkPPDUs    int
	BACollisions   int
	BATimeouts     int
	KeepalivesSent int
}

type dupKey struct {
	tx  *mac.Node
	seq uint16
}

// dupWindow is a duplicate filter over the last size keys remembered:
// seen holds them, and ring holds them in insertion order. ring grows to
// size and then wraps, head marking its oldest key, so the window never
// reallocates once full.
type dupWindow[K comparable] struct {
	seen map[K]bool
	ring []K
	head int
}

// remember adds k to the window; when that makes the window hold more
// than size keys, the oldest is evicted after k is inserted.
func (w *dupWindow[K]) remember(k K, size int) {
	w.seen[k] = true
	if len(w.ring) < size {
		w.ring = append(w.ring, k)
		return
	}
	old := w.ring[w.head]
	w.ring[w.head] = k
	if w.head++; w.head == size {
		w.head = 0
	}
	delete(w.seen, old)
}

type awaitBA struct {
	sent []mac.MPDU
	rate phy.Rate
	// timer is the BA deadline, an AtKeep event the record re-arms for
	// every aggregate; onTimeout is baTimeout for this record, bound
	// once.
	timer     *sim.Event
	onTimeout func()
}

// New creates a client and registers its radio on the medium.
func New(id int, loop *sim.Loop, medium *mac.Medium, traj mobility.Trajectory, cfg Config, rng *sim.RNG) *Client {
	cfg.Rates = cfg.Rates.OrDefault()
	c := &Client{
		ID:         id,
		Addr:       packet.ClientMAC(id),
		IP:         packet.ClientIP(id),
		loop:       loop,
		medium:     medium,
		traj:       traj,
		cfg:        cfg,
		rng:        rng,
		upQ:        queue.NewFIFO[packet.Packet](cfg.UplinkQueueCap),
		agg:        mac.NewAggregator(),
		rates:      phy.NewMinstrelFor(cfg.Rates, rng.Fork("minstrel")),
		dupMAC:     dupWindow[dupKey]{seen: make(map[dupKey]bool)},
		dupIP:      dupWindow[packet.DedupKey]{seen: make(map[packet.DedupKey]bool)},
		AcceptFrom: func(*mac.Node) bool { return true },
		UplinkDst:  packet.BSSID,
	}
	c.node = &mac.Node{
		Name: fmt.Sprintf("client%d", id),
		Addr: c.Addr,
		// Pos reads c.loop (not the constructor argument) so a client
		// migrated across segment domains reports positions on its
		// current owner's clock.
		Pos:  func() rf.Position { return c.traj.Pos(c.loop.Now()) },
		Recv: (*clientReceiver)(c),
	}
	medium.Register(c.node)
	if cfg.KeepaliveInterval > 0 {
		// Real clients emit DHCP/ARP traffic right after associating;
		// that first uplink frame is what lets the controller adopt
		// the client immediately.
		c.keepaliveFn = c.keepalive
		c.keepaliveEv = loop.After(sim.Millisecond, c.keepaliveFn)
	}
	return c
}

// Now returns the client's current virtual time (its owning loop's clock).
// Client-side transport endpoints use this as their clock so they stay
// correct when the client migrates between segment domains.
func (c *Client) Now() sim.Time { return c.loop.Now() }

// SetAlive installs the owning domain's liveness check (see the alive
// field). Pass nil where the client never migrates.
func (c *Client) SetAlive(fn func() bool) { c.alive, c.txopFn = fn, nil }

// Detach removes the client from its current loop and medium ahead of a
// cross-domain migration: the radio is unregistered (silencing in-flight
// transmissions and pending grants), timers are canceled, and an
// outstanding BA wait is resolved as a timeout so the aggregator's
// retry state survives the move. Must run on the owning domain.
func (c *Client) Detach() {
	c.medium.Unregister(c.node)
	if c.keepaliveEv != nil {
		c.loop.Cancel(c.keepaliveEv)
		c.keepaliveEv = nil
	}
	if aw := c.await; aw != nil {
		c.await = nil
		c.loop.Cancel(aw.timer)
		c.BATimeouts++
		c.agg.Timeout(aw.sent)
		c.rates.Feedback(c.loop.Now(), aw.rate, len(aw.sent), 0)
	}
	c.busy = false
	c.alive, c.txopFn = nil, nil
	for _, t := range c.tasks {
		if t.ev != nil {
			c.loop.Cancel(t.ev)
			t.ev = nil
		}
	}
}

// Attach places a detached client onto a new loop and medium (the
// adopting domain). Must run on the adopting domain's goroutine at a
// time consistent with the cross-domain mailbox delay.
func (c *Client) Attach(loop *sim.Loop, medium *mac.Medium, alive func() bool) {
	c.loop = loop
	c.medium = medium
	c.alive, c.txopFn = alive, nil
	medium.Register(c.node)
	if c.cfg.KeepaliveInterval > 0 {
		// As in New: an early first keepalive lets the new segment's
		// controller adopt the client quickly.
		c.keepaliveEv = loop.After(sim.Millisecond, c.keepaliveFn)
	}
	for _, t := range c.tasks {
		c.armTask(t)
	}
	c.kick()
}

// Node exposes the client's radio (the core wiring needs it for channel
// lookups).
func (c *Client) Node() *mac.Node { return c.node }

// SendUplink enqueues an IP packet for uplink transmission (the client's
// Wire for transport endpoints). The source address and an IPID are
// stamped here, as the client's IP stack would.
func (c *Client) SendUplink(p packet.Packet) {
	p.Src = c.IP
	c.ipid++
	p.IPID = c.ipid
	p.Created = c.loop.Now()
	c.upQ.Push(p)
	c.kick()
}

// QueueLen reports the uplink backlog.
func (c *Client) QueueLen() int { return c.upQ.Len() }

// keepalive emits a tiny uplink frame when the uplink has been idle, so
// the AP array keeps receiving CSI from this client.
func (c *Client) keepalive() {
	idle := c.loop.Now().Sub(c.lastTxAt) >= c.cfg.KeepaliveInterval
	if idle && c.upQ.Len() == 0 {
		c.ipid++
		c.upQ.Push(packet.Packet{
			Src: c.IP, Dst: packet.ControllerIP, Proto: packet.ProtoUDP,
			IPID: c.ipid, SrcPort: 68, DstPort: 67, PayloadLen: 0,
			Created: c.loop.Now(),
		})
		c.KeepalivesSent++
		c.kick()
	}
	c.keepaliveEv = c.loop.After(c.cfg.KeepaliveInterval, c.keepaliveFn)
}

// kick starts the uplink transmit loop if idle.
func (c *Client) kick() {
	if c.busy || c.upQ.Len() == 0 && c.agg.PendingRetries() == 0 {
		return
	}
	c.busy = true
	c.medium.Contend(c.node, phy.CWMin, c.txopCB())
}

// txopCB returns txop as a contention-grant callback, bound once per
// residency: SetAlive, Attach and Detach drop the binding. A grant may
// fire after this client migrated away (and even after it migrated
// back); only the generation-scoped alive check distinguishes the stale
// grant from a live one, so under a liveness check the callback runs
// txop only while the check it was bound with still holds.
func (c *Client) txopCB() func() {
	if c.txopFn == nil {
		if alive := c.alive; alive != nil {
			c.txopFn = func() {
				if alive() {
					c.txop()
				}
			}
		} else {
			c.txopFn = c.txop
		}
	}
	return c.txopFn
}

// txop builds and transmits one uplink aggregate.
func (c *Client) txop() {
	rate := c.rates.Select(c.loop.Now())
	mpdus := c.agg.Build(rate, func() (packet.Packet, bool) {
		return c.upQ.Pop()
	})
	if len(mpdus) == 0 {
		c.busy = false
		return
	}
	t := c.medium.NewTransmission()
	t.Tx = c.node
	t.Dst = c.UplinkDst
	t.Type = mac.FrameData
	t.Rate = rate
	t.MPDUs = mpdus
	c.medium.Transmit(t)
	c.UplinkPPDUs++
	c.lastTxAt = c.loop.Now()
	deadline := t.End.Add(phy.SIFS + phy.BlockAckAirtime + c.cfg.BAWaitMargin)
	// One aggregate is in flight at a time (busy), and every path that
	// settles it (BA, timeout, Detach) fires or cancels its timer, so
	// the previous use of the record and of its timer event is over and
	// both are reused.
	aw := c.baWait
	if aw == nil {
		aw = &awaitBA{}
		aw.onTimeout = func() { c.baTimeout(aw) }
		c.baWait = aw
	}
	aw.sent, aw.rate = mpdus, rate
	aw.timer = c.loop.Rearm(aw.timer, deadline, aw.onTimeout)
	c.await = aw
}

// baTimeout fires when no block ACK arrived for the last aggregate.
func (c *Client) baTimeout(aw *awaitBA) {
	if c.await != aw {
		return
	}
	c.await = nil
	c.BATimeouts++
	c.agg.Timeout(aw.sent)
	c.rates.Feedback(c.loop.Now(), aw.rate, len(aw.sent), 0)
	c.busy = false
	c.kick()
}

// clientReceiver adapts Client to mac.Receiver without exporting the
// method set on Client itself.
type clientReceiver Client

// OnReceive implements mac.Receiver.
func (cr *clientReceiver) OnReceive(t *mac.Transmission, det mac.Detection) {
	c := (*Client)(cr)
	switch t.Type {
	case mac.FrameBlockAck:
		c.onBlockAck(t, det)
	case mac.FrameData:
		c.onDownlinkData(t, det)
	case mac.FrameBeacon:
		if c.OnBeacon != nil && !det.Collided {
			c.OnBeacon(t.Tx, det.ESNRdB)
		}
	case mac.FrameMgmt:
		if c.OnMgmt != nil && !det.Collided && t.Dst == c.Addr {
			c.OnMgmt(t.Tx, t.Mgmt)
		}
	}
}

// onBlockAck processes an AP's acknowledgement of our last uplink
// aggregate. Several APs may answer (they are all associated); the first
// uncollided BA wins, later ones are ignored.
func (c *Client) onBlockAck(t *mac.Transmission, det mac.Detection) {
	if t.Dst != c.Addr || c.await == nil {
		return
	}
	if det.Collided {
		c.BACollisions++
		return // maybe another AP's copy survives
	}
	aw := c.await
	c.await = nil
	c.loop.Cancel(aw.timer)
	res := c.agg.ProcessBA(aw.sent, t.BA)
	c.rates.Feedback(c.loop.Now(), aw.rate, len(aw.sent), res.AckedCount)
	c.busy = false
	c.kick()
}

// onDownlinkData handles an AP→client aggregate: MAC-level dedup, IP-level
// dedup (copies can arrive via two APs around a switch), delivery to the
// stack, and the block-ACK response.
func (c *Client) onDownlinkData(t *mac.Transmission, det mac.Detection) {
	if t.Dst != c.Addr {
		return
	}
	if c.AcceptFrom != nil && !c.AcceptFrom(t.Tx) {
		return // baseline: not my AP
	}
	if det.Collided {
		return // nothing decodable, no BA
	}
	anyOK := false
	for i := range t.MPDUs {
		if !det.OK[i] {
			continue
		}
		anyOK = true
		m := &t.MPDUs[i]
		k := dupKey{tx: t.Tx, seq: m.Seq}
		if c.dupMAC.seen[k] {
			c.RxDuplicates++
			c.RxDupMAC++
			continue // MAC retransmission of a frame we already have
		}
		c.dupMAC.remember(k, macDedupWindow)
		ik := m.Pkt.DedupKey()
		if c.dupIP.seen[ik] {
			c.RxDuplicates++
			c.RxDupIP++
			continue // same IP packet via another AP
		}
		c.dupIP.remember(ik, ipDedupWindow)
		c.RxMPDUs++
		c.RxBytes += int64(m.Pkt.WireLen())
		if c.OnPacket != nil {
			c.OnPacket(m.Pkt)
		}
	}
	if anyOK {
		// Compressed BA back to the transmitter after SIFS. The BA
		// acknowledges decoded MPDUs even if they were duplicates:
		// acking is about MAC receipt, not stack delivery.
		ba := mac.BuildBitmap(t.MPDUs, det.OK)
		// Capture the medium and liveness check now: by the time the
		// SIFS expires the client may have migrated to another domain,
		// and reading c.medium then would race with the new owner. t
		// itself is pooled and may be recycled by then, so copy the
		// address out too.
		medium, node, alive, dst := c.medium, c.node, c.alive, t.Tx.Addr
		c.loop.After(phy.SIFS, func() {
			if alive != nil && !alive() {
				return
			}
			bat := medium.NewTransmission()
			bat.Tx = node
			bat.Dst = dst
			bat.Type = mac.FrameBlockAck
			bat.Rate = c.cfg.Rates.Basic
			bat.BA = ba
			medium.Transmit(bat)
		})
	}
}

// Dedup window sizes. The MAC window MUST be well below the 4096-value
// sequence space: the transmitter legitimately reuses a sequence number
// every 4096 MPDUs, and a window as large as the space would mistake every
// reuse for a retransmission. 1024 comfortably exceeds any real
// retransmission horizon (the BA window is 64).
const (
	macDedupWindow = 1024
	ipDedupWindow  = 4096
)

// DebugState exposes internal flags for test diagnostics.
func (c *Client) DebugState() (busy bool, awaiting bool, qlen int, retries int) {
	return c.busy, c.await != nil, c.upQ.Len(), c.agg.PendingRetries()
}
