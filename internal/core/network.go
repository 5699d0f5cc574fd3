package core

import (
	"math"
	"strconv"

	"wgtt/internal/ap"
	"wgtt/internal/backhaul"
	"wgtt/internal/baseline"
	"wgtt/internal/channel"
	"wgtt/internal/client"
	"wgtt/internal/controller"
	"wgtt/internal/csi"
	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// Client couples a mobile station with its trajectory and per-port
// downlink demultiplexer.
type Client struct {
	*client.Client
	Traj   mobility.Trajectory
	Roamer *baseline.Roamer // baseline schemes only
	demux  map[uint16]func(packet.Packet)
}

// Handle registers a downlink consumer for a destination port on this
// client (a transport endpoint).
func (c *Client) Handle(port uint16, fn func(packet.Packet)) {
	c.demux[port] = fn
}

// Network is a fully wired deployment: the radio medium and clients on
// one side, and an ordered chain of road segments (each with its own
// controller/bridge, APs, and backhaul domain) on the other, run as
// execution domains on one coordinator.
type Network struct {
	Cfg Config
	// Loop is the wired server's event loop: the only loop of a
	// one-domain network, the "server" domain's loop when split.
	Loop *sim.Loop

	// Coord runs the network's execution domains; never nil. The shape
	// follows Config.Domains (see DomainMode): one domain holding every
	// segment and the wired server, whose coordinator has no mailboxes
	// and runs each Run to its horizon in one round, or one domain per
	// segment plus the server's, joined by mailboxes.
	Coord *sim.Coordinator

	// Medium is the radio medium every segment shares in the one-domain
	// shape; nil when split, where each segment domain has its own.
	Medium *mac.Medium
	// Deploy is the segment chain. Backhaul, Ctrl, APs, Bridge, and
	// BaseAPs below are convenience views over it: Backhaul/Ctrl/Bridge
	// are segment 0's (the only segment in the classic deployment), and
	// the AP slices aggregate every segment in global-id order.
	Deploy   *deploy.Deployment
	Backhaul *backhaul.Net

	Ctrl    *controller.Controller
	APs     []*ap.AP
	Bridge  *baseline.Bridge
	BaseAPs []*baseline.AP

	Clients []*Client

	// recs[i] is segment i's switch-protocol recorder, with a ring of
	// Config.FlightRecorder records; nil for baseline planes. Each
	// recorder is written only by its segment's domain.
	recs []*trace.Recorder

	rng        *sim.RNG
	serverIPID uint16
	// model is the channel-model backend (Config.ChannelBackend); all
	// propagation, CSI synthesis, and the MCS ladder come from it.
	model channel.Model
	// sdOut is the reusable server-data shell for SendFromServer into a
	// segment on the server's loop (Send serializes synchronously).
	sdOut   packet.ServerData
	apNodes []*mac.Node
	// apPos[i] is AP i's mounting position, resolved once as the AP is
	// built; the hot radio paths read it instead of Config.APPosition,
	// which re-resolves the segment geometry on every call.
	apPos []rf.Position
	// links[clientID][apIdx] is the radio channel realization.
	links       [][]channel.Link
	serverDemux map[uint16]func(packet.Packet)
	// Wired-server routing and de-duplication across segments.
	route        map[packet.IP]int
	serverDedup  map[packet.DedupKey]bool
	serverDedupQ []packet.DedupKey
	// ServerDuplicates counts uplink packets that reached the wired
	// server through more than one segment's controller.
	ServerDuplicates int

	// segs[i] is segment i's execution domain and server the wired
	// server's; in the one-domain shape they are all the same domain.
	segs   []*segDomain
	server *sim.Domain
	// Split shape only: the server's mailbox into each segment domain,
	// and the directed trunk transports numbered in TrunkLink call order
	// (deterministic — part of the cross-process schedule); trunkWired
	// marks mailboxes whose kindTrunk demux is registered.
	serverToSeg []*sim.Mailbox
	trunkChans  []*trunkChannel
	trunkWired  map[*sim.Mailbox]bool

	// Telemetry (Config.Telemetry; nil/empty when disabled). telSegs[i]
	// is segment i's scope, a view of its domain's shard; telRoot is
	// the wired server's, on the root shard.
	tel     *telemetry.Registry
	telSegs []telemetry.Scope
	telRoot telemetry.Scope
}

// nodeRef names one of the network's radio nodes: an AP by global id or
// a client by id. It lives in the node's mac.Node.Tag (setRef, refOf),
// offset by one, so the zero Tag of a node the network never recorded —
// a test fake — reads as a node of no kind.
type nodeRef struct {
	isAP bool
	idx  int
}

// setRef records node's kind and index in its Tag.
func setRef(node *mac.Node, r nodeRef) {
	t := r.idx << 1
	if r.isAP {
		t |= 1
	}
	node.Tag = t + 1
}

// refOf returns the kind and index setRef recorded for node; ok is false
// for a node with none.
func refOf(node *mac.Node) (r nodeRef, ok bool) {
	t := node.Tag - 1
	if t < 0 {
		return nodeRef{}, false
	}
	return nodeRef{isAP: t&1 == 1, idx: t >> 1}, true
}

// NewNetwork builds and wires a deployment. Clients are added with
// AddClient before Run. The configuration is validated first; an
// invalid one returns a descriptive error.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := buildModel(&cfg)
	if err != nil {
		return nil, err
	}
	geoms := cfg.segmentGeoms()
	n := &Network{
		Cfg:         cfg,
		Coord:       sim.NewCoordinator(cfg.Trunk.PropDelay, cfg.Domains == DomainsParallel),
		rng:         sim.NewRNG(cfg.Seed),
		model:       model,
		serverDemux: make(map[uint16]func(packet.Packet)),
		route:       make(map[packet.IP]int),
		serverDedup: make(map[packet.DedupKey]bool),
	}
	// Both shapes fork their media before any plane or client forks.
	split := cfg.Domains != SingleLoop && len(geoms) > 1
	if split {
		n.splitDomains(len(geoms))
	} else {
		sd := n.newSegDomain("net", "medium")
		for range geoms {
			n.segs = append(n.segs, sd)
		}
		n.server = sd.dom
		n.Medium = sd.medium
	}
	n.Loop = n.server.Loop
	if cfg.Telemetry {
		n.initTelemetry(split)
	}
	fedTopo := cfg.federationTopology()

	d, err := deploy.Builder{
		Geoms:         geoms,
		Backhaul:      cfg.Backhaul,
		Trunk:         cfg.Trunk,
		ExtraTrunks:   cfg.extraTrunks(),
		FaultSeed:     cfg.Seed,
		Telemetry:     n.segTel,
		SegmentLoop:   func(i int) *sim.Loop { return n.segs[i].dom.Loop },
		TrunkLink:     n.trunkLink,
		ServerHandler: n.serverTap,
		BuildPlane: func(seg *deploy.Segment) deploy.Plane {
			sd := n.segs[seg.Index]
			loop := sd.dom.Loop
			// The only scheme switch in the network: pick the plane.
			switch cfg.Scheme {
			case WGTT:
				rec := trace.NewRecorder(seg.Index, cfg.FlightRecorder)
				n.recs = append(n.recs, rec)
				n.segTel(seg.Index).Spans("handoff", rec.Spans())
				p := deploy.NewWGTTPlane(seg, loop, sd.medium, rec,
					n.segTel(seg.Index), n.rng, cfg.AP, cfg.Controller)
				n.attachFederation(fedTopo, seg.Index, loop, p.Ctrl)
				if n.Ctrl == nil {
					n.Ctrl = p.Ctrl
				}
				for _, a := range p.APs {
					n.APs = append(n.APs, a)
					n.addAPNode(a.Node(), int(a.ID))
				}
				return p
			default:
				n.recs = append(n.recs, nil)
				p := deploy.NewBaselinePlane(seg, loop, sd.medium, n.rng, cfg.BaselineAP)
				if n.Bridge == nil {
					n.Bridge = p.Bridge
				}
				for _, a := range p.APs {
					n.BaseAPs = append(n.BaseAPs, a)
					n.addAPNode(a.Node(), int(a.ID))
				}
				return p
			}
		},
	}.Build()
	if err != nil {
		return nil, err
	}
	n.Deploy = d
	n.Backhaul = d.Segments[0].Backhaul
	if split {
		// After Build, so each patrol's first tick follows the plane
		// timers in its loop's event order.
		for _, sd := range n.segs {
			sd.patrolFn = sd.patrol
			sd.dom.Loop.After(patrolInterval, sd.patrolFn)
		}
	}
	return n, nil
}

// addAPNode registers an AP's radio node and position under its global
// id.
func (n *Network) addAPNode(node *mac.Node, id int) {
	n.apNodes = append(n.apNodes, node)
	n.apPos = append(n.apPos, node.Pos())
	setRef(node, nodeRef{isAP: true, idx: id})
}

// buildModel instantiates the configured channel backend and fills the
// plane configs' rate tables from it when the caller left them nil, so
// APs and clients transmit with the backend's MCS ladder.
func buildModel(cfg *Config) (channel.Model, error) {
	m, err := cfg.ChannelModel()
	if err != nil {
		return nil, err
	}
	if cfg.AP.Rates == nil {
		cfg.AP.Rates = m.Rates()
	}
	if cfg.Client.Rates == nil {
		cfg.Client.Rates = m.Rates()
	}
	return m, nil
}

// Model exposes the active channel backend (experiments sample it for
// heatmaps and diagnostics).
func (n *Network) Model() channel.Model { return n.model }

// MustNewNetwork is NewNetwork for callers holding an
// already-validated configuration; it panics on error.
func MustNewNetwork(cfg Config) *Network {
	n, err := NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// TotalAPs is the deployment-wide AP count.
func (n *Network) TotalAPs() int { return len(n.apNodes) }

// Controllers returns every segment's controller (WGTT only; nil
// entries never occur — baselines return an empty slice).
func (n *Network) Controllers() []*controller.Controller {
	var cs []*controller.Controller
	for _, s := range n.Deploy.Segments {
		if p, ok := s.Plane.(*deploy.WGTTPlane); ok {
			cs = append(cs, p.Ctrl)
		}
	}
	return cs
}

// Bridges returns every segment's baseline bridge.
func (n *Network) Bridges() []*baseline.Bridge {
	var bs []*baseline.Bridge
	for _, s := range n.Deploy.Segments {
		if p, ok := s.Plane.(*deploy.BaselinePlane); ok {
			bs = append(bs, p.Bridge)
		}
	}
	return bs
}

// AddClient attaches a mobile client following traj. Clients must be
// added before Run; the returned handle carries the transport hookup
// points.
func (n *Network) AddClient(traj mobility.Trajectory) *Client {
	id := len(n.Clients)
	// Association: the segment whose AP is nearest the client's start
	// owns it first; its domain hosts the client's radio, and its plane
	// registers the state (WGTT replicates sta_info, baselines
	// force-associate and return the roamer's initial AP).
	pos := traj.Pos(n.Loop.Now())
	seg := n.Deploy.SegmentOfAP(n.nearestAP(pos))
	home := n.segs[seg.Index]
	// The fork labels are built with strconv into a stack buffer: the
	// bytes fmt's "client%d" and "link-%d-%d" would produce, without
	// fmt's cost on every link.
	var lb [32]byte
	label := strconv.AppendInt(append(lb[:0], "client"...), int64(id), 10)
	cl := client.New(id, home.dom.Loop, home.medium, traj, n.Cfg.Client, n.rng.Fork(string(label)))
	c := &Client{Client: cl, Traj: traj, demux: make(map[uint16]func(packet.Packet))}
	cl.OnPacket = func(p packet.Packet) {
		if fn := c.demux[p.DstPort]; fn != nil {
			fn(p)
		}
	}
	setRef(cl.Node(), nodeRef{isAP: false, idx: id})

	// Per-AP radio links for this client, in global AP order.
	row := make([]channel.Link, len(n.apPos))
	for i, apPos := range n.apPos {
		label = strconv.AppendInt(append(lb[:0], "link-"...), int64(i), 10)
		label = strconv.AppendInt(append(label, '-'), int64(id), 10)
		row[i] = n.model.NewLink(apPos, n.rng.Fork(string(label)))
	}
	n.links = append(n.links, row)
	n.Clients = append(n.Clients, c)

	if node := seg.Plane.Associate(id, cl.Addr, cl.IP, pos); node != nil {
		c.Roamer = baseline.NewRoamer(n.Loop, n.Medium, cl, node, n.Cfg.Roamer)
	}
	n.route[cl.IP] = seg.Index
	if n.tel != nil {
		n.clientGauges(seg.Index, id)
	}
	if home.resident != nil {
		home.acceptResident(c)
	}
	return c
}

// nearestAP returns the global AP id closest to pos.
func (n *Network) nearestAP(pos rf.Position) int {
	best, bestD := 0, math.Inf(1)
	for i, apPos := range n.apPos {
		if d := apPos.Distance(pos); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Run advances the network to the given virtual time.
func (n *Network) Run(until sim.Duration) {
	n.Coord.Run(sim.Time(until))
	n.noteUnownedSpike(nil)
}

// ServerHandle registers an uplink consumer for a destination port at the
// wired server.
func (n *Network) ServerHandle(port uint16, fn func(packet.Packet)) {
	n.serverDemux[port] = fn
}

// SendFromServer injects a downlink packet at the wired server (the Wire
// for server-side transport endpoints). Like a real IP stack, the server
// host stamps the IP identification field from a single per-host counter
// shared by all its flows — the de-duplication key downstream depends on
// host-wide uniqueness, not per-connection uniqueness. The packet enters
// the backhaul of the segment currently routing the destination client.
func (n *Network) SendFromServer(p packet.Packet) {
	if p.Src.IsZero() {
		p.Src = packet.ServerIP
	}
	n.serverIPID++
	p.IPID = n.serverIPID
	si := 0
	if s, ok := n.route[p.Dst]; ok {
		si = s
	}
	if n.segs[si].dom == n.server {
		// Send serializes synchronously, so reuse a shell.
		n.sdOut = packet.ServerData{Inner: p}
		n.Deploy.Segments[si].Backhaul.Send(deploy.NodeServer, deploy.NodeController, &n.sdOut)
		return
	}
	// Cross the server→segment mailbox; the backhaul hop itself runs in
	// the segment domain (the kindServerSend handler registered in
	// wireDomainEnvelopes). The envelope serializes later, so the
	// message cannot be scratch here.
	n.serverToSeg[si].Post(n.Loop.Now().Add(n.Cfg.Trunk.PropDelay),
		sim.Envelope{Kind: kindServerSend, Payload: &packet.ServerData{Inner: p}})
}

// serverTap implements deploy.Builder.ServerHandler: segment si's
// backhaul tap at the wired server. On the server's loop it is the
// server's handler itself; from another domain it crosses into the
// server domain, so route/dedup state stays server-local.
func (n *Network) serverTap(si int) backhaul.Handler {
	sd := n.segs[si]
	if sd.dom == n.server {
		return func(from backhaul.NodeID, msg packet.Message) { n.onServerBackhaul(si, from, msg) }
	}
	return func(from backhaul.NodeID, msg packet.Message) {
		// ServerData arrives in the backhaul's decode scratch and the
		// envelope outlives the handler call, so the payload embeds a
		// copy.
		tp := &serverTapPayload{seg: si, from: from}
		if d, ok := msg.(*packet.ServerData); ok {
			tp.sd = *d
			tp.msg = &tp.sd
		} else {
			tp.msg = msg
		}
		sd.toServer.Post(sd.dom.Loop.Now().Add(n.Cfg.Trunk.PropDelay),
			sim.Envelope{Kind: kindServerTap, Payload: tp})
	}
}

// onServerBackhaul receives uplink packets at the wired server's tap on
// segment si, and association updates that re-route a handed-off
// client's downlink. With several segments, a packet relayed by more
// than one controller is de-duplicated here on its (src IP, IP-ID) key.
func (n *Network) onServerBackhaul(si int, from backhaul.NodeID, msg packet.Message) {
	switch m := msg.(type) {
	case *packet.ServerData:
		if len(n.Deploy.Segments) > 1 {
			k := m.Inner.DedupKey()
			if n.serverDedup[k] {
				n.ServerDuplicates++
				return
			}
			n.serverDedup[k] = true
			n.serverDedupQ = append(n.serverDedupQ, k)
			if len(n.serverDedupQ) > serverDedupCap {
				delete(n.serverDedup, n.serverDedupQ[0])
				n.serverDedupQ = n.serverDedupQ[1:]
			}
		}
		if fn := n.serverDemux[m.Inner.DstPort]; fn != nil {
			fn(m.Inner)
		}
	case *packet.AssocState:
		if !m.IP.IsZero() {
			n.route[m.IP] = si
		}
	}
}

// serverDedupCap bounds the server-side de-duplication hashset.
const serverDedupCap = 1 << 16

// ServingAP reports which AP currently serves/associates client id (-1
// none), as a global AP id.
func (n *Network) ServingAP(clientID int) int {
	c := n.Clients[clientID]
	if c.Roamer != nil {
		// Baselines: the client-side view of the association.
		ref, ok := refOf(c.Roamer.Current())
		if !ok || !ref.isAP {
			return -1
		}
		return ref.idx
	}
	for _, s := range n.Deploy.Segments {
		if id := s.Plane.ServingAP(c.Addr); id >= 0 {
			return id
		}
	}
	return -1
}

// LinkESNRdB returns the instantaneous effective SNR of the ap↔client
// link at the client's current position — ground truth for oracle
// comparisons (Table 2) and the Fig. 2 traces.
func (n *Network) LinkESNRdB(apIdx, clientID int) float64 {
	var snrs [rf.NumSubcarriers]float64
	now := n.Loop.Now()
	pos := n.Clients[clientID].Traj.Pos(now)
	n.links[clientID][apIdx].SubcarrierSNRsDB(now, pos, snrs[:])
	return csi.EffectiveSNRdB(snrs[:], csi.RefModulation)
}

// OracleBestAP returns the AP with maximal instantaneous ESNR to the
// client.
func (n *Network) OracleBestAP(clientID int) int {
	best, bestV := 0, math.Inf(-1)
	for i := 0; i < n.TotalAPs(); i++ {
		if v := n.LinkESNRdB(i, clientID); v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// netChannel implements mac.Channel over the deployment geometry for one
// execution domain's medium: the whole network in the one-domain shape,
// or one segment's medium partition when split. Positions are sampled on
// the domain's own clock so concurrent domains never read another loop.
type netChannel struct {
	n    *Network
	loop *sim.Loop
}

// SubcarrierSNRs implements mac.Channel. senseDB is SenseSNRdB(tx, rx)
// now: the AP↔client link applies its fading to it with the backend's
// floored fill, and every other pair gets a flat channel at it, left
// unfilled below floorDB.
func (nc *netChannel) SubcarrierSNRs(tx, rx *mac.Node, senseDB, floorDB float64, dst []float64) (audible, filled bool) {
	n := nc.n
	tref, tok := refOf(tx)
	rref, rok := refOf(rx)
	if !tok || !rok {
		return false, false
	}
	if tref.isAP != rref.isAP {
		// Downlink or uplink: one reciprocal channel.
		ap, cli := apClient(tref, rref)
		now := nc.loop.Now()
		pos := n.Clients[cli].Traj.Pos(now)
		return true, n.links[cli][ap].FillSubcarrierSNRsDB(now, pos, senseDB, floorDB, dst)
	}
	// Client ↔ client is the backend's flat vehicle-to-vehicle budget;
	// AP ↔ AP only matters for sensing, so it is a flat strong channel
	// within range.
	if senseDB < -5 {
		return false, false
	}
	return true, rf.FillFlatSNRsDB(senseDB, floorDB, dst)
}

// SenseSNRdB implements mac.Channel (large-scale only).
func (nc *netChannel) SenseSNRdB(tx, rx *mac.Node) float64 {
	n := nc.n
	tref, tok := refOf(tx)
	rref, rok := refOf(rx)
	switch {
	case !tok || !rok:
		return -100
	case tref.isAP != rref.isAP:
		ap, cli := apClient(tref, rref)
		now := nc.loop.Now()
		return n.links[cli][ap].MeanSNRdB(now, n.Clients[cli].Traj.Pos(now))
	case !tref.isAP:
		return nc.clientClientSNR(tref.idx, rref.idx)
	default:
		if n.apPos[tref.idx].Distance(n.apPos[rref.idx]) <= n.Cfg.APAPSenseRangeM {
			return n.Cfg.APAPSenseSNRdB
		}
		return -10
	}
}

// SenseBoundDB implements mac.SenseBounder for AP↔client pairs in either
// direction: the backend's MaxSNRClientToAPDB at the client's current
// position, the bound the audibility index already relies on, which
// dominates the link's MeanSNRdB in float arithmetic (DESIGN.md §10).
// Client↔client and AP↔AP sensing is already cheap; those pairs have
// no bound and take the exact path.
func (nc *netChannel) SenseBoundDB(tx, rx *mac.Node) (float64, bool) {
	n := nc.n
	tref, tok := refOf(tx)
	rref, rok := refOf(rx)
	if !tok || !rok || tref.isAP == rref.isAP {
		return 0, false
	}
	ap, cli := apClient(tref, rref)
	pos := n.Clients[cli].Traj.Pos(nc.loop.Now())
	return n.model.MaxSNRClientToAPDB(pos, n.apPos[ap]), true
}

// apClient orders an AP↔client pair of node kinds as (AP global id,
// client id).
func apClient(a, b nodeRef) (ap, cli int) {
	if a.isAP {
		return a.idx, b.idx
	}
	return b.idx, a.idx
}

// DetectHeadroomDB implements mac.DetectHeadroomer by delegating to the
// backend's analytic constructive-fading bound. It licenses the medium's
// cheap large-scale rejection of implausible receivers.
func (nc *netChannel) DetectHeadroomDB() float64 {
	return nc.n.model.DetectHeadroomDB()
}

// clientClientSNR is the vehicle-to-vehicle budget (the backend's flat
// client↔client path).
func (nc *netChannel) clientClientSNR(a, b int) float64 {
	n := nc.n
	pa := n.Clients[a].Traj.Pos(nc.loop.Now())
	pb := n.Clients[b].Traj.Pos(nc.loop.Now())
	return n.model.ClientClientSNRdB(pa.Distance(pb))
}
