package federation

import (
	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// Link is one outgoing trunk direction a node can send on
// (*deploy.Trunk satisfies it).
type Link interface {
	Deliver(m packet.Message)
	Up() bool
}

// Handler is the node's local consumer — the segment's controller.
type Handler interface {
	// Owns reports whether the controller currently owns the client.
	Owns(c packet.MAC) bool
	// ExportedTo returns the segment this controller last exported the
	// client to (-1 if unknown), used to chase a stale claim toward the
	// real owner along the export chain.
	ExportedTo(c packet.MAC) int
	// OnFederated delivers a federation message addressed to this
	// segment; src is the originating segment.
	OnFederated(src int, msg packet.Message)
	// Release orders the controller to relinquish a client it believes
	// it owns because the directory converged on another owner.
	Release(c packet.MAC, owner int)
}

// Config tunes the federation layer (core.Config.Federation).
type Config struct {
	// Enabled turns the layer on; the zero value leaves every legacy
	// code path untouched.
	Enabled bool
	// Ring closes the trunk chain into a ring (an extra trunk between
	// the first and last segments). Requires at least three segments.
	Ring bool
	// ExtraTrunks adds further bypass trunks between segment pairs.
	ExtraTrunks [][2]int
	// MaxRetries bounds both RPCs' attempts (0 = default 8).
	MaxRetries int
}

// RPC parameters. Both retry intervals back off exponentially.
const (
	claimRetry        = 20 * sim.Millisecond // re-locate RPC's initial retry interval
	exportRetry       = 10 * sim.Millisecond // reliable export's initial retransmit interval
	defaultMaxRetries = 8
	maxBackoffShift   = 4 // cap backoff at 16x the base interval
)

// withDefaults fills zero RPC knobs.
func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = defaultMaxRetries
	}
	return c
}

// pendingClaim is one in-flight re-locate: a claim retried with
// backoff until the owner's export arrives or attempts run out.
type pendingClaim struct {
	client   packet.MAC
	score    float64
	attempts int
	timer    *sim.Event
	spanID   uint32
}

// exportKey identifies one reliable export RPC.
type exportKey struct {
	client packet.MAC
	id     uint32
}

// pendingExport is one in-flight reliable export: retransmitted until
// the importer's HandoffAck or retry exhaustion, with the outcome
// reported to the controller (which keeps ownership until then).
type pendingExport struct {
	dst      int
	msg      *packet.Handoff
	attempts int
	timer    *sim.Event
	done     func(ok bool)
}

// fedMetrics are the node's counters (nil-safe until SetTelemetry).
type fedMetrics struct {
	dirLookups    *telemetry.Counter
	dirMisses     *telemetry.Counter
	dirUpdates    *telemetry.Counter
	dirQueries    *telemetry.Counter
	claimRetx     *telemetry.Counter
	exportRetx    *telemetry.Counter
	routedFwd     *telemetry.Counter
	routedExpired *telemetry.Counter
	routedNoLink  *telemetry.Counter
}

// Node is one segment's federation endpoint. It lives entirely inside
// the segment's event-loop domain: links deliver into neighbouring
// domains through the trunks' cross-domain posts, and the shared
// Topology is immutable, so nodes never touch each other's state.
type Node struct {
	loop  *sim.Loop
	self  int
	topo  *Topology
	cfg   Config
	dir   *Directory
	links map[int]Link
	h     Handler

	spanSeq uint32
	claims  map[packet.MAC]*pendingClaim
	exports map[exportKey]*pendingExport

	met fedMetrics
	// Relocations tracks each re-locate as a span, claim to import.
	Relocations *telemetry.Spans

	// Relocates counts completed re-locates (claim → import observed).
	Relocates int
	// RelocatesAbandoned counts claims that exhausted their retries.
	RelocatesAbandoned int
}

// NewNode builds the federation endpoint for segment self.
func NewNode(loop *sim.Loop, self int, topo *Topology, cfg Config) *Node {
	return &Node{
		loop:    loop,
		self:    self,
		topo:    topo,
		cfg:     cfg.withDefaults(),
		dir:     NewDirectory(),
		links:   make(map[int]Link),
		claims:  make(map[packet.MAC]*pendingClaim),
		exports: make(map[exportKey]*pendingExport),

		Relocations: telemetry.NewSpans(),
	}
}

// Bind installs the node's local handler (the segment controller).
func (n *Node) Bind(h Handler) { n.h = h }

// AddLink registers the outgoing trunk direction toward neighbour seg.
func (n *Node) AddLink(seg int, l Link) { n.links[seg] = l }

// SetTelemetry hangs the node's counters under sc, with views of its
// re-locate stats. A zero scope leaves telemetry off.
func (n *Node) SetTelemetry(sc telemetry.Scope) {
	if !sc.Enabled() {
		return
	}
	n.met = fedMetrics{
		dirLookups:    sc.Counter("dir_lookups"),
		dirMisses:     sc.Counter("dir_misses"),
		dirUpdates:    sc.Counter("dir_updates"),
		dirQueries:    sc.Counter("dir_queries"),
		claimRetx:     sc.Counter("claim_retx"),
		exportRetx:    sc.Counter("export_retx"),
		routedFwd:     sc.Counter("routed_fwd"),
		routedExpired: sc.Counter("routed_expired"),
		routedNoLink:  sc.Counter("routed_no_link"),
	}
	sc.CounterFunc("relocates", func() int64 { return int64(n.Relocates) })
	sc.CounterFunc("relocates_abandoned", func() int64 { return int64(n.RelocatesAbandoned) })
}

// Self returns the node's segment index.
func (n *Node) Self() int { return n.self }

// Directory exposes the node's replica (tests and telemetry).
func (n *Node) Directory() *Directory { return n.dir }

// OwnerOf returns the replica's current owner for a client.
func (n *Node) OwnerOf(c packet.MAC) (int, bool) {
	e, ok := n.dir.Lookup(c)
	return e.Owner, ok
}

// Send routes msg to segment dst inside a fresh Routed envelope. It
// returns false when dst is unreachable even on the full graph.
func (n *Node) Send(dst int, msg packet.Message) bool {
	if dst == n.self {
		n.h.OnFederated(n.self, msg)
		return true
	}
	m := &packet.Routed{SrcSeg: uint16(n.self), DstSeg: uint16(dst), TTL: n.topo.MaxTTL(), Inner: msg}
	return n.route(m)
}

// route emits an envelope on the next-hop link toward its destination.
func (n *Node) route(m *packet.Routed) bool {
	hop, ok := n.topo.NextHop(n.self, int(m.DstSeg), n.loop.Now())
	if !ok {
		n.met.routedNoLink.Inc()
		return false
	}
	l := n.links[hop]
	if l == nil {
		n.met.routedNoLink.Inc()
		return false
	}
	l.Deliver(m)
	return true
}

// Announce acquires (or re-asserts) local ownership of a client in the
// directory: it installs a locally-beating entry and floods it. Call
// on registration, on import, and when reclaiming a failed export.
func (n *Node) Announce(c packet.MAC) {
	cur, _ := n.dir.Lookup(c)
	e := Entry{Owner: n.self, Epoch: cur.Epoch + 1}
	n.dir.Apply(c, e)
	n.flood(&packet.DirUpdate{Client: c, Owner: uint16(n.self), Epoch: e.Epoch})
}

// NoteExported records a completed export locally and floods the new
// ownership. The exporter held the authoritative (highest-epoch) entry,
// so this update beats every stale replica even if the importer's own
// announcement is lost.
func (n *Node) NoteExported(c packet.MAC, dst int) {
	cur, _ := n.dir.Lookup(c)
	e := Entry{Owner: dst, Epoch: cur.Epoch + 1}
	n.dir.Apply(c, e)
	n.flood(&packet.DirUpdate{Client: c, Owner: uint16(dst), Epoch: e.Epoch})
}

// flood sends a directory message to every other segment. Each
// destination gets its own envelope; the inner message is immutable in
// flight and safely shared.
func (n *Node) flood(msg packet.Message) {
	for seg := 0; seg < n.topo.NumSegments(); seg++ {
		if seg != n.self {
			n.Send(seg, msg)
		}
	}
}

// Claim starts (or refreshes) a re-locate for a client this segment
// hears but does not own: look the owner up in the replica, send it a
// HandoffClaim, and retry with exponential backoff until the owner's
// export arrives. On a replica miss the node floods a DirQuery first.
func (n *Node) Claim(c packet.MAC, score float64) {
	if pc := n.claims[c]; pc != nil {
		pc.score = score // freshest signal rides the next retry
		return
	}
	n.spanSeq++
	pc := &pendingClaim{client: c, score: score, spanID: n.spanSeq}
	n.claims[c] = pc
	n.Relocations.Begin(pc.spanID, n.loop.Now(), n.self, -1)
	n.sendClaim(pc)
}

// sendClaim issues one claim attempt and arms its retry timer.
func (n *Node) sendClaim(pc *pendingClaim) {
	n.met.dirLookups.Inc()
	e, ok := n.dir.Lookup(pc.client)
	if !ok || e.Owner == n.self {
		// Replica miss (or it stale-points at us): ask the fleet.
		n.met.dirMisses.Inc()
		n.flood(&packet.DirQuery{Client: pc.client})
	} else {
		n.Send(e.Owner, &packet.Handoff{Kind: packet.HandoffClaim, Client: pc.client, Score: pc.score})
	}
	shift := pc.attempts
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	d := claimRetry << shift
	pc.timer = n.loop.After(d, func() { n.claimTimeout(pc) })
}

// claimTimeout retries or abandons an unanswered claim.
func (n *Node) claimTimeout(pc *pendingClaim) {
	if n.claims[pc.client] != pc {
		return
	}
	if pc.attempts >= n.cfg.MaxRetries {
		delete(n.claims, pc.client)
		n.RelocatesAbandoned++
		n.Relocations.Drop(pc.spanID)
		return
	}
	pc.attempts++
	n.met.claimRetx.Inc()
	n.sendClaim(pc)
}

// ClaimResolved closes a pending re-locate: the claimed client was
// imported locally.
func (n *Node) ClaimResolved(c packet.MAC) {
	pc := n.claims[c]
	if pc == nil {
		return
	}
	delete(n.claims, c)
	if pc.timer != nil {
		n.loop.Cancel(pc.timer)
	}
	n.Relocates++
	n.Relocations.End(pc.spanID, n.loop.Now())
}

// SendReliable transfers an export to dst, retransmitting until the
// importer's HandoffAck or retry exhaustion; done reports the outcome.
// The caller keeps ownership until done(true).
func (n *Node) SendReliable(dst int, msg *packet.Handoff, done func(ok bool)) {
	pe := &pendingExport{dst: dst, msg: msg, done: done}
	n.exports[exportKey{msg.Client, msg.SwitchID}] = pe
	n.sendExport(pe)
}

// sendExport issues one export attempt and arms its retransmit timer.
func (n *Node) sendExport(pe *pendingExport) {
	n.Send(pe.dst, pe.msg)
	shift := pe.attempts
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	d := exportRetry << shift
	pe.timer = n.loop.After(d, func() { n.exportTimeout(pe) })
}

// exportTimeout retransmits or abandons an unacked export.
func (n *Node) exportTimeout(pe *pendingExport) {
	key := exportKey{pe.msg.Client, pe.msg.SwitchID}
	if n.exports[key] != pe {
		return
	}
	if pe.attempts >= n.cfg.MaxRetries {
		delete(n.exports, key)
		pe.done(false)
		return
	}
	pe.attempts++
	n.met.exportRetx.Inc()
	n.sendExport(pe)
}

// AbortExport cancels a pending export without an outcome callback
// (the controller released the client underneath it).
func (n *Node) AbortExport(c packet.MAC, switchID uint32) {
	key := exportKey{c, switchID}
	pe := n.exports[key]
	if pe == nil {
		return
	}
	delete(n.exports, key)
	if pe.timer != nil {
		n.loop.Cancel(pe.timer)
	}
}

// OnRouted accepts an envelope arriving on one of this node's trunks:
// deliver it locally or forward it toward its destination.
func (n *Node) OnRouted(m *packet.Routed) {
	if int(m.DstSeg) == n.self {
		n.local(m)
		return
	}
	n.forward(m)
}

// forward sends an in-flight envelope one hop onward, honouring TTL.
func (n *Node) forward(m *packet.Routed) {
	if m.TTL == 0 {
		n.met.routedExpired.Inc()
		return
	}
	m.TTL--
	n.met.routedFwd.Inc()
	n.route(m)
}

// local consumes an envelope addressed to this segment.
func (n *Node) local(m *packet.Routed) {
	src := int(m.SrcSeg)
	switch inner := m.Inner.(type) {
	case *packet.DirUpdate:
		e := Entry{Owner: int(inner.Owner), Epoch: inner.Epoch}
		if n.dir.Apply(inner.Client, e) {
			n.met.dirUpdates.Inc()
			if e.Owner != n.self && n.h.Owns(inner.Client) {
				// The directory converged on someone else: stand down.
				n.h.Release(inner.Client, e.Owner)
			}
		}
	case *packet.DirQuery:
		n.met.dirQueries.Inc()
		if n.h.Owns(inner.Client) {
			e, _ := n.dir.Lookup(inner.Client)
			n.Send(src, &packet.DirUpdate{Client: inner.Client, Owner: uint16(n.self), Epoch: e.Epoch})
		}
	case *packet.Handoff:
		if inner.Kind == packet.HandoffAck {
			n.onAck(inner)
			return
		}
		if inner.Kind == packet.HandoffClaim && !n.h.Owns(inner.Client) {
			// Stale claim: chase the export chain toward the real owner,
			// preserving the envelope's origin so the eventual export
			// goes back to the claimant, not to us.
			if next := n.h.ExportedTo(inner.Client); next >= 0 && next != n.self && next != src {
				m.DstSeg = uint16(next)
				n.forward(m)
			}
			return
		}
		n.h.OnFederated(src, inner)
	default:
		n.h.OnFederated(src, inner)
	}
}

// onAck resolves a pending reliable export.
func (n *Node) onAck(m *packet.Handoff) {
	key := exportKey{m.Client, m.SwitchID}
	pe := n.exports[key]
	if pe == nil {
		return
	}
	delete(n.exports, key)
	if pe.timer != nil {
		n.loop.Cancel(pe.timer)
	}
	pe.done(true)
}
