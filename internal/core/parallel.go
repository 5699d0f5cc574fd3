package core

import (
	"fmt"
	"math"

	"wgtt/internal/client"
	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// This file builds the network's execution domains. In the one-domain
// shape a single sim.Domain owns the event loop, the shared radio
// medium, every segment and the wired server. In the split shape
// (Config.Domains on two or more segments) every segment becomes a
// domain owning its own event loop, radio-medium partition, backhaul,
// and control plane, and one extra domain hosts the wired server.
// Split domains interact only through sim.Mailboxes whose minimum
// latency is the trunk propagation delay, which is therefore the
// conservative-synchronization lookahead. Clients are owned by exactly
// one segment domain at a time; a per-domain border patrol migrates a
// client's radio to the adjacent segment when its position says so, and
// the controllers' cross-segment claim/handoff protocol then moves the
// control-plane state over the trunk exactly as it does between
// segments on one loop.

// patrolInterval paces the per-domain border patrol. It must be long
// relative to the lookahead (so migration latency is dominated by physics,
// not patrol quantization) and short relative to handoff dynamics; 5 ms
// adds at most one beacon interval of extra staleness to a crossing.
const patrolInterval = 5 * sim.Millisecond

// segDomain is one execution domain that runs segments: its event loop
// and the radio medium their APs and resident clients transmit on. The
// fields from idx on exist only in the split shape, where the domain
// runs segment idx alone.
type segDomain struct {
	n      *Network
	dom    *sim.Domain
	medium *mac.Medium

	idx int
	// resident maps each owned client to its adoption generation; the
	// generation distinguishes a client's current residency from a
	// previous one (a client can leave and come back), so callbacks
	// scheduled during an old residency can detect they are stale. Only
	// this domain touches the map. Nil in the one-domain shape, whose
	// clients never migrate.
	resident map[*client.Client]uint64
	nextGen  uint64
	// order lists owned clients in adoption order, the deterministic
	// iteration order for the patrol; patrolFn is patrol, bound once.
	order    []*Client
	patrolFn func()

	toPrev   *sim.Mailbox // nil on the first segment
	toNext   *sim.Mailbox // nil on the last segment
	toServer *sim.Mailbox
	// mbTo maps every trunk-linked segment (adjacent chain plus any
	// federation ring/bypass trunks) to this domain's outgoing mailbox;
	// toPrev/toNext are aliases into it for the patrol.
	mbTo map[int]*sim.Mailbox

	// Boundary-interference exchange (Config.BoundaryInterference).
	// bounds lists the adjacent-chain neighbours and the shared boundary
	// x coordinate; remoteTx holds the neighbour transmissions currently
	// raising this domain's noise floor. boundaryPosted feeds the parity
	// tests, with the medium's InterferenceHits.
	bounds         []segBoundary
	remoteTx       []remoteTx
	boundaryPosted int
}

// newSegDomain registers a domain on the coordinator with a radio
// medium drawing from the RNG fork mediumFork.
func (n *Network) newSegDomain(name, mediumFork string) *segDomain {
	d := n.Coord.NewDomain(name)
	sd := &segDomain{n: n, dom: d}
	sd.medium = mac.NewMedium(d.Loop, &netChannel{n: n, loop: d.Loop}, n.rng.Fork(mediumFork))
	sd.medium.SetAudibilityIndex(newAudIndex(n, d.Loop))
	return sd
}

// splitDomains builds the split shape: one domain per segment, then the
// server's, and the mailboxes between them with their receive handlers.
// The resulting behaviour is NOT bit-identical to the one-domain shape
// (the medium is partitioned, so cross-segment radio interference
// disappears and per-segment RNG streams replace the shared one); what
// IS guaranteed is that DomainsSerial and DomainsParallel are
// bit-identical to each other, which is what the parity tests pin.
//
// Mailboxes link every trunk-linked segment pair (the adjacent chain
// plus any federation ring/bypass trunks — trunk traffic + client
// migration) and every segment with the wired server. All share the
// trunk propagation delay, so one lookahead bounds them all. Trunk
// jitter is strictly additive on top of PropDelay, so faulted
// deployments keep the same lookahead.
func (n *Network) splitDomains(numSegs int) {
	for i := 0; i < numSegs; i++ {
		sd := n.newSegDomain(fmt.Sprintf("seg%d", i), fmt.Sprintf("medium%d", i))
		sd.idx = i
		sd.resident = make(map[*client.Client]uint64)
		sd.mbTo = make(map[int]*sim.Mailbox)
		n.segs = append(n.segs, sd)
	}
	n.server = n.Coord.NewDomain("server")

	lookahead := n.Cfg.Trunk.PropDelay
	var pairs [][2]int
	for i := 0; i+1 < numSegs; i++ {
		pairs = append(pairs, [2]int{i, i + 1})
	}
	pairs = append(pairs, n.Cfg.extraTrunks()...)
	for _, e := range pairs {
		i, j := e[0], e[1]
		if i > j {
			i, j = j, i
		}
		if n.segs[i].mbTo[j] != nil {
			continue // duplicate extra pair
		}
		n.segs[i].mbTo[j] = n.Coord.Connect(n.segs[i].dom, n.segs[j].dom, lookahead)
		n.segs[j].mbTo[i] = n.Coord.Connect(n.segs[j].dom, n.segs[i].dom, lookahead)
	}
	for i := 0; i+1 < numSegs; i++ {
		n.segs[i].toNext = n.segs[i].mbTo[i+1]
		n.segs[i+1].toPrev = n.segs[i+1].mbTo[i]
	}
	for _, sd := range n.segs {
		sd.toServer = n.Coord.Connect(sd.dom, n.server, lookahead)
		n.serverToSeg = append(n.serverToSeg, n.Coord.Connect(n.server, sd.dom, lookahead))
	}
	n.trunkWired = make(map[*sim.Mailbox]bool)
	n.wireDomainEnvelopes()
	if n.Cfg.BoundaryInterference {
		n.wireBoundaryInterference(n.Cfg.segmentGeoms())
	}
}

// segBoundary names one adjacent segment and the x coordinate of the
// boundary shared with it (the midpoint between the facing APs).
type segBoundary struct {
	to        int
	boundaryX float64
}

// remoteTx summarizes a neighbour-domain transmission near the shared
// boundary: when it was on air and the large-scale facts the backend
// needs to price its co-channel energy here.
type remoteTx struct {
	start, end sim.Time
	pos        rf.Position
	isAP       bool
}

// remoteTxLinger keeps an expired remoteTx long enough that any local
// transmission it overlapped — whose delivery evaluates at PPDU end —
// still sees it. 10 ms comfortably exceeds the longest aggregate.
const remoteTxLinger = 10 * sim.Millisecond

// aliveAt returns the liveness check handed to a client for one
// residency: it is true only while the client is still owned by this
// domain under the same adoption generation. The closure reads only this
// domain's state and is only invoked by events on this domain's loop.
func (s *segDomain) aliveAt(cl *client.Client, gen uint64) func() bool {
	return func() bool { return s.resident[cl] == gen }
}

// acceptResident records initial ownership of a client built directly on
// this domain (construction time).
func (s *segDomain) acceptResident(c *Client) {
	s.nextGen++
	s.resident[c.Client] = s.nextGen
	s.order = append(s.order, c)
	c.SetAlive(s.aliveAt(c.Client, s.nextGen))
}

// adopt attaches a migrating client to this domain. Runs as a mailbox
// thunk on this domain's loop, one lookahead after the Detach.
func (s *segDomain) adopt(c *Client) {
	s.nextGen++
	s.resident[c.Client] = s.nextGen
	s.order = append(s.order, c)
	c.Attach(s.dom.Loop, s.medium, s.aliveAt(c.Client, s.nextGen))
}

// patrol walks the domain's clients and hands off any whose position now
// belongs to another segment, one adjacent hop per tick. The radio moves
// immediately (Detach) and the adoption lands one lookahead later in the
// neighbour; the controllers' claim protocol follows on its own.
func (s *segDomain) patrol() {
	s.dom.Loop.After(patrolInterval, s.patrolFn)
	now := s.dom.Loop.Now()
	kept := s.order[:0]
	for _, c := range s.order {
		want := s.n.segmentForPos(c.Traj.Pos(now))
		var mb *sim.Mailbox
		switch {
		case want > s.idx && s.toNext != nil:
			mb = s.toNext
		case want < s.idx && s.toPrev != nil:
			mb = s.toPrev
		}
		if mb == nil {
			kept = append(kept, c)
			continue
		}
		c.Detach()
		delete(s.resident, c.Client)
		// The kindMigrate handler registered on mb belongs to the
		// adjacent domain (wireDomainEnvelopes) and adopts the client.
		mb.Post(now.Add(s.n.Cfg.Trunk.PropDelay), sim.Envelope{Kind: kindMigrate, Payload: c})
	}
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
}

// segmentForPos returns the index of the segment owning a road position
// (the one whose AP is nearest). Pure geometry — safe from any domain.
func (n *Network) segmentForPos(pos rf.Position) int {
	return n.Deploy.SegmentOfAP(n.nearestAP(pos)).Index
}

// wireBoundaryInterference connects adjacent segment domains' media so
// that transmissions within BoundaryZoneM of a shared boundary are
// exported to the neighbour as co-channel interference. The export rides
// the same mailboxes (and therefore the same trunk-propagation
// lookahead) as all other cross-domain traffic, so DomainsSerial and
// DomainsParallel stay bit-identical to each other.
func (n *Network) wireBoundaryInterference(geoms []deploy.Geometry) {
	lastX := func(i int) float64 {
		return geoms[i].FirstAPX + float64(geoms[i].NumAPs-1)*geoms[i].APSpacing
	}
	for i, sd := range n.segs {
		if i+1 < len(n.segs) {
			sd.bounds = append(sd.bounds, segBoundary{
				to: i + 1, boundaryX: (lastX(i) + geoms[i+1].FirstAPX) / 2})
		}
		if i > 0 {
			sd.bounds = append(sd.bounds, segBoundary{
				to: i - 1, boundaryX: (lastX(i-1) + geoms[i].FirstAPX) / 2})
		}
		sd := sd
		sd.medium.SetOnTransmit(sd.exportBoundaryTx)
		sd.medium.SetInterference(sd.remoteInterference)
		for _, b := range sd.bounds {
			dst := n.segs[b.to]
			sd.mbTo[b.to].OnReceive(kindBoundary, func(p any) {
				dst.acceptRemoteTx(*p.(*remoteTx))
			})
		}
	}
}

// exportBoundaryTx posts a boundary-zone transmission summary to the
// adjacent domains; it fires synchronously inside Medium.Transmit.
func (s *segDomain) exportBoundaryTx(t *mac.Transmission) {
	pos := t.Tx.Pos()
	ref, ok := refOf(t.Tx)
	if !ok {
		return
	}
	for _, b := range s.bounds {
		if math.Abs(pos.X-b.boundaryX) > s.n.Cfg.BoundaryZoneM {
			continue
		}
		rec := &remoteTx{start: t.Start, end: t.End, pos: pos, isAP: ref.isAP}
		s.mbTo[b.to].Post(s.dom.Loop.Now().Add(s.n.Cfg.Trunk.PropDelay),
			sim.Envelope{Kind: kindBoundary, Payload: rec})
		s.boundaryPosted++
	}
}

// acceptRemoteTx lands a neighbour's boundary-zone summary on this
// domain's loop, one lookahead after it went on air, and prunes entries
// past their linger.
func (s *segDomain) acceptRemoteTx(rec remoteTx) {
	now := s.dom.Loop.Now()
	kept := s.remoteTx[:0]
	for _, r := range s.remoteTx {
		if r.end.Add(remoteTxLinger) > now {
			kept = append(kept, r)
		}
	}
	s.remoteTx = kept
	if rec.end.Add(remoteTxLinger) > now {
		s.remoteTx = append(s.remoteTx, rec)
	}
}

// remoteInterference implements the medium's external-interference hook:
// the summed linear interference-over-noise the receiver accumulates
// from neighbour-domain boundary transmissions overlapping t's airtime,
// and whether any overlapped. It writes nothing: the medium evaluates
// receivers concurrently and counts the hits itself.
func (s *segDomain) remoteInterference(rx *mac.Node, t *mac.Transmission) (iLin float64, hit bool) {
	if len(s.remoteTx) == 0 {
		return 0, false
	}
	rxPos := rx.Pos()
	for _, r := range s.remoteTx {
		if r.start < t.End && t.Start < r.end {
			ion := s.n.model.InterferenceOverNoiseDB(r.isAP, r.pos, rxPos)
			iLin += math.Pow(10, ion/10)
			hit = true
		}
	}
	return iLin, hit
}

// BoundaryInterferenceStats sums the exchange counters across segment
// domains: summaries posted to neighbours, and receptions whose SINR
// evaluation saw an overlapping remote source. Zero/zero when the
// feature is off.
func (n *Network) BoundaryInterferenceStats() (posted, applied int) {
	for _, sd := range n.segs {
		posted += sd.boundaryPosted
		applied += sd.medium.InterferenceHits()
	}
	return
}
