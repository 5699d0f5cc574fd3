// Package baseline implements the paper's comparison scheme, "Enhanced
// 802.11r" (§5.1): independent APs that beacon every 100 ms, a client-side
// roamer that switches on an RSSI threshold with one second of time
// hysteresis, pre-shared authentication state so reassociation is a
// single over-the-air exchange, and a plain bridge that steers downlink
// traffic to whichever AP the client last associated with.
//
// It also implements stock 802.11r behaviour (5-second RSSI history,
// over-the-DS transition through the current AP) for the §2 motivation
// experiment, where handover fails outright at driving speed.
package baseline

import (
	"fmt"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/queue"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// APConfig tunes a baseline AP.
type APConfig struct {
	// BeaconInterval is the beacon period (§5.1: 100 ms).
	BeaconInterval sim.Duration
	// QueueCap bounds the per-client downlink FIFO (packets). The
	// paper's Fig. 7 backlog measurements correspond to queues this
	// deep.
	QueueCap int
	// BAWaitMargin pads the block-ACK wait.
	BAWaitMargin sim.Duration
}

// DefaultAPConfig returns the §5.1 settings.
func DefaultAPConfig() APConfig {
	return APConfig{
		BeaconInterval: 100 * sim.Millisecond,
		QueueCap:       512,
		BAWaitMargin:   80 * sim.Microsecond,
	}
}

// Fabric resolves backhaul identities for baseline nodes.
type Fabric interface {
	APNode(apID uint16) backhaul.NodeID
	Bridge() backhaul.NodeID
}

type apClient struct {
	addr       packet.MAC
	q          *queue.FIFO[packet.Packet]
	agg        *mac.Aggregator
	rates      *phy.Minstrel
	associated bool
}

type apAwait struct {
	client *apClient
	sent   []mac.MPDU
	rate   phy.Rate
	timer  *sim.Event
	start  uint16
}

// AP is one Enhanced-802.11r access point: its own BSS, FIFO queues, no
// controller assistance beyond bridging.
type AP struct {
	ID   uint16
	Addr packet.MAC

	loop   *sim.Loop
	medium *mac.Medium
	node   *mac.Node
	bh     *backhaul.Net
	self   backhaul.NodeID
	fabric Fabric
	cfg    APConfig
	rng    *sim.RNG

	clients map[packet.MAC]*apClient
	order   []packet.MAC
	rrNext  int
	busy    bool
	await   *apAwait

	// Stats.
	BeaconsSent    int
	Reassociations int
	QueueDrops     int
	// RateMPDUs counts transmitted MPDUs per MCS (Fig. 16).
	RateMPDUs [phy.NumRates]int
}

// NewAP creates a baseline AP at pos and starts its beacon schedule.
func NewAP(id uint16, pos rf.Position, loop *sim.Loop, medium *mac.Medium, bh *backhaul.Net, self backhaul.NodeID, fabric Fabric, cfg APConfig, rng *sim.RNG) *AP {
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
		clients: make(map[packet.MAC]*apClient),
	}
	a.node = &mac.Node{
		Name: fmt.Sprintf("bap%d", id),
		Addr: a.Addr,
		Pos:  func() rf.Position { return pos },
		Recv: (*apRecv)(a),
	}
	medium.Register(a.node)
	bh.AddNode(self, a.OnBackhaul)
	// Stagger beacons across APs so they don't all contend at once.
	offset := sim.Duration(float64(cfg.BeaconInterval) * float64(id%8) / 8)
	loop.After(offset+sim.Millisecond, a.beacon)
	return a
}

// Node exposes the AP's radio.
func (a *AP) Node() *mac.Node { return a.node }

// Associated reports whether the client is currently attached here.
func (a *AP) Associated(client packet.MAC) bool {
	cs := a.clients[client]
	return cs != nil && cs.associated
}

// Backlog reports the client's queued downlink packets here.
func (a *AP) Backlog(client packet.MAC) int {
	cs := a.clients[client]
	if cs == nil {
		return 0
	}
	return cs.q.Len()
}

func (a *AP) stateFor(addr packet.MAC) *apClient {
	cs := a.clients[addr]
	if cs == nil {
		cs = &apClient{
			addr:  addr,
			q:     queue.NewFIFO[packet.Packet](a.cfg.QueueCap),
			agg:   mac.NewAggregator(),
			rates: phy.NewMinstrel(a.rng.Fork("minstrel" + addr.String())),
		}
		a.clients[addr] = cs
		a.order = append(a.order, addr)
	}
	return cs
}

// ForceAssociate attaches a client administratively (initial association
// at experiment start).
func (a *AP) ForceAssociate(client packet.MAC, ip packet.IP) {
	cs := a.stateFor(client)
	cs.associated = true
	a.bh.Send(a.self, a.fabric.Bridge(), &packet.AssocState{
		Client: client, IP: ip, AID: a.ID + 1, State: packet.StateAssociated,
	})
}

// beacon transmits the periodic beacon (broadcast, basic rate).
func (a *AP) beacon() {
	a.medium.Contend(a.node, 4, func() {
		a.medium.Transmit(&mac.Transmission{
			Tx:   a.node,
			Dst:  mac.Broadcast,
			Type: mac.FrameBeacon,
			Rate: phy.BasicRate,
		})
		a.BeaconsSent++
	})
	a.loop.After(a.cfg.BeaconInterval, a.beacon)
}

// OnBackhaul handles bridge traffic.
func (a *AP) OnBackhaul(from backhaul.NodeID, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.DownlinkData:
		cs := a.stateFor(m.Client)
		if !cs.q.Push(m.Inner) {
			a.QueueDrops++
		}
		if cs.associated {
			a.kick()
		}
	case *packet.AssocState:
		// The bridge replicating that the client moved elsewhere:
		// release it and drop the stale backlog.
		cs := a.stateFor(m.Client)
		if m.AID != a.ID+1 {
			cs.associated = false
			cs.q.Clear()
			cs.agg.DropRetries()
		}
	case *packet.ReassocRelay:
		// Over-the-DS fast transition arriving via the wire: accept
		// the client and answer over the air.
		if m.TargetAPID == a.ID {
			a.acceptReassoc(m.Client, packet.IP{})
		}
	}
}

// acceptReassoc completes a fast transition onto this AP.
func (a *AP) acceptReassoc(client packet.MAC, ip packet.IP) {
	cs := a.stateFor(client)
	cs.associated = true
	a.Reassociations++
	// Tell the bridge so downlink redirects; the bridge replicates the
	// release to the other APs.
	a.bh.Send(a.self, a.fabric.Bridge(), &packet.AssocState{
		Client: client, IP: ip, AID: a.ID + 1, State: packet.StateAssociated,
	})
	// ReassocResp over the air.
	a.medium.Contend(a.node, 4, func() {
		a.medium.Transmit(&mac.Transmission{
			Tx:   a.node,
			Dst:  client,
			Type: mac.FrameMgmt,
			Rate: phy.BasicRate,
			Mgmt: mac.MgmtInfo{Kind: mac.MgmtReassocResp, Target: a.Addr},
		})
	})
	a.kick()
}

// kick starts the downlink loop if work is pending.
func (a *AP) kick() {
	if a.busy || a.nextIdx() < 0 {
		return
	}
	a.busy = true
	a.medium.Contend(a.node, phy.CWMin, a.txop)
}

func (a *AP) nextIdx() int {
	n := len(a.order)
	for i := 0; i < n; i++ {
		idx := (a.rrNext + i) % n
		cs := a.clients[a.order[idx]]
		if cs.associated && (cs.q.Len() > 0 || cs.agg.PendingRetries() > 0) {
			return idx
		}
	}
	return -1
}

func (a *AP) txop() {
	idx := a.nextIdx()
	if idx < 0 {
		a.busy = false
		return
	}
	a.rrNext = (idx + 1) % len(a.order)
	cs := a.clients[a.order[idx]]
	rate := cs.rates.Select(a.loop.Now())
	mpdus := cs.agg.Build(rate, func() (packet.Packet, bool) { return cs.q.Pop() })
	if len(mpdus) == 0 {
		a.busy = false
		return
	}
	t := &mac.Transmission{
		Tx: a.node, Dst: cs.addr, Type: mac.FrameData, Rate: rate, MPDUs: mpdus,
	}
	a.medium.Transmit(t)
	a.RateMPDUs[rate.MCS] += len(mpdus)
	aw := &apAwait{client: cs, sent: mpdus, rate: rate, start: mpdus[0].Seq}
	deadline := t.End.Add(phy.SIFS + phy.BlockAckAirtime + a.cfg.BAWaitMargin)
	aw.timer = a.loop.At(deadline, func() { a.baTimeout(aw) })
	a.await = aw
}

func (a *AP) baTimeout(aw *apAwait) {
	if a.await != aw {
		return
	}
	a.await = nil
	aw.client.agg.Timeout(aw.sent)
	aw.client.rates.Feedback(a.loop.Now(), aw.rate, len(aw.sent), 0)
	if !aw.client.associated {
		aw.client.agg.DropRetries()
	}
	a.busy = false
	a.kick()
}

// apRecv adapts AP to mac.Receiver.
type apRecv AP

// OnReceive handles client BAs, uplink data addressed to this BSS, and
// over-the-air management frames.
func (ar *apRecv) OnReceive(t *mac.Transmission, det mac.Detection) {
	a := (*AP)(ar)
	switch t.Type {
	case mac.FrameBlockAck:
		if det.Collided || t.Dst != a.Addr {
			return
		}
		if aw := a.await; aw != nil && aw.client.addr == t.Tx.Addr && aw.start == t.BA.StartSeq {
			a.await = nil
			a.loop.Cancel(aw.timer)
			res := aw.client.agg.ProcessBA(aw.sent, t.BA)
			aw.client.rates.Feedback(a.loop.Now(), aw.rate, len(aw.sent), res.AckedCount)
			if !aw.client.associated {
				aw.client.agg.DropRetries()
			}
			a.busy = false
			a.kick()
		}
	case mac.FrameData:
		if t.Dst != a.Addr || det.Collided {
			return
		}
		cs := a.stateFor(t.Tx.Addr)
		if !cs.associated {
			return
		}
		anyOK := false
		for i := range t.MPDUs {
			if !det.OK[i] {
				continue
			}
			anyOK = true
			a.bh.Send(a.self, a.fabric.Bridge(), &packet.UplinkData{
				APID: a.ID, Client: t.Tx.Addr, Inner: t.MPDUs[i].Pkt,
			})
		}
		if anyOK {
			ba := mac.BuildBitmap(t.MPDUs, det.OK)
			// t may be pooled (the shared client transmits pooled
			// aggregates) and recycled before the SIFS expires.
			dst := t.Tx.Addr
			a.loop.After(phy.SIFS, func() {
				a.medium.Transmit(&mac.Transmission{
					Tx: a.node, Dst: dst, Type: mac.FrameBlockAck,
					Rate: phy.BasicRate, BA: ba,
				})
			})
		}
	case mac.FrameMgmt:
		if det.Collided || t.Dst != a.Addr {
			return
		}
		switch t.Mgmt.Kind {
		case mac.MgmtReassocReq:
			if t.Mgmt.Target == a.Addr {
				// Over-the-air fast transition directly to us.
				a.acceptReassoc(t.Tx.Addr, packet.IP{})
			} else {
				// Over-the-DS: relay toward the target through
				// the wire (stock 802.11r mode).
				if id, ok := apIDFromMAC(t.Mgmt.Target); ok {
					a.bh.Send(a.self, a.fabric.APNode(id), &packet.ReassocRelay{
						Client: t.Tx.Addr, TargetAPID: id, CurrentAPID: a.ID,
					})
				}
			}
		}
	}
}

// apIDFromMAC inverts packet.APMAC.
func apIDFromMAC(m packet.MAC) (uint16, bool) {
	probe := packet.APMAC(int(m[4])<<8 | int(m[5]))
	if probe == m {
		return uint16(m[4])<<8 | uint16(m[5]), true
	}
	return 0, false
}
