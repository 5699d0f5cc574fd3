// Package deploy composes road segments into a deployment: each Segment
// owns one controller (or baseline bridge), its APs, and its own
// backhaul domain, while the Deployment chains segments along the road
// behind one wired server. Adjacent segments are linked by
// point-to-point trunks over which the controllers run the
// cross-segment client handoff (the paper's §3.1.2 stop/start/ack
// generalized across controller domains) and the baseline bridges run
// bridge-to-bridge re-association.
package deploy

import (
	"fmt"

	"wgtt/internal/backhaul"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// Backhaul node ids within one segment's domain. Every segment numbers
// its nodes identically: the controller (or bridge) at 0, the wired
// server's tap at 1, and the segment's APs from 2 upward in local
// order.
const (
	NodeController backhaul.NodeID = 0
	NodeServer     backhaul.NodeID = 1
	NodeFirstAP    backhaul.NodeID = 2
)

// nodeInvalid is a node id no segment ever attaches; the backhaul
// silently drops frames addressed to it, which is how a fabric lookup
// for an AP outside the segment resolves.
const nodeInvalid backhaul.NodeID = -1

// SegmentSpec describes one road segment's geometry in a deployment
// configuration. Zero fields inherit the deployment defaults.
type SegmentSpec struct {
	// NumAPs is the segment's AP count.
	NumAPs int
	// APSpacing is the AP pitch in meters.
	APSpacing float64
	// APSetback overrides the deployment's AP setback (0 = inherit).
	APSetback float64
	// Gap is the distance from the previous segment's last AP to this
	// segment's first AP (0 = this segment's spacing).
	Gap float64
}

// Geometry is one segment's resolved placement.
type Geometry struct {
	NumAPs    int
	APSpacing float64
	APSetback float64
	FirstAPX  float64
}

// Validate rejects geometry the simulator cannot place.
func (g Geometry) Validate() error {
	if g.NumAPs <= 0 {
		return fmt.Errorf("deploy: segment NumAPs must be positive, got %d", g.NumAPs)
	}
	if g.APSpacing <= 0 {
		return fmt.Errorf("deploy: segment APSpacing must be positive, got %g", g.APSpacing)
	}
	return nil
}

// Resolve chains segment specs into absolute geometries starting at
// firstX, inheriting defSetback (and defSpacing for zero-spacing specs).
func Resolve(specs []SegmentSpec, firstX, defSpacing, defSetback float64) []Geometry {
	geoms := make([]Geometry, len(specs))
	x := firstX
	for i, s := range specs {
		g := Geometry{NumAPs: s.NumAPs, APSpacing: s.APSpacing, APSetback: s.APSetback}
		if g.APSpacing == 0 {
			g.APSpacing = defSpacing
		}
		if g.APSetback == 0 {
			g.APSetback = defSetback
		}
		if i > 0 {
			gap := s.Gap
			if gap == 0 {
				gap = g.APSpacing
			}
			x += gap
		}
		g.FirstAPX = x
		x += float64(g.NumAPs-1) * g.APSpacing
		geoms[i] = g
	}
	return geoms
}

// Segment is one coverage domain: geometry, a backhaul, and the
// scheme-specific plane (controller+APs or bridge+APs).
type Segment struct {
	Index  int
	APBase int // global id of this segment's first AP
	Geom   Geometry

	Backhaul *backhaul.Net
	Plane    Plane
}

// APPosition returns the mounting position of the segment's local AP i.
func (s *Segment) APPosition(local int) rf.Position {
	return rf.Position{X: s.Geom.FirstAPX + float64(local)*s.Geom.APSpacing, Y: s.Geom.APSetback}
}

// ContainsAP reports whether the global AP id lives in this segment.
func (s *Segment) ContainsAP(global int) bool {
	return global >= s.APBase && global < s.APBase+s.Geom.NumAPs
}

// Deployment is the ordered chain of segments along the road.
type Deployment struct {
	Segments []*Segment
	// Trunks lists every trunk direction, in build order.
	Trunks []*Trunk
}

// TotalAPs is the deployment-wide AP count.
func (d *Deployment) TotalAPs() int {
	last := d.Segments[len(d.Segments)-1]
	return last.APBase + last.Geom.NumAPs
}

// SegmentOfAP returns the segment owning the global AP id.
func (d *Deployment) SegmentOfAP(global int) *Segment {
	for _, s := range d.Segments {
		if s.ContainsAP(global) {
			return s
		}
	}
	return nil
}

// Builder assembles a Deployment. The callbacks keep scheme and
// execution knowledge out of this package: SegmentLoop names the event
// loop each segment runs on, TrunkLink carries each trunk direction's
// messages to the receiving segment, ServerHandler returns the wired
// server's receive handler for a segment's backhaul tap, and BuildPlane
// constructs the scheme-specific plane (it runs after the segment's
// backhaul and server tap exist, preserving the single-segment
// construction order bit-for-bit).
type Builder struct {
	// Geoms is the resolved per-segment geometry chain.
	Geoms []Geometry
	// Backhaul configures every segment's intra-segment backhaul.
	Backhaul backhaul.Config
	// Trunk configures the inter-segment links.
	Trunk TrunkConfig
	// ServerHandler returns the wired server's backhaul tap for a
	// segment.
	ServerHandler func(seg int) backhaul.Handler
	// BuildPlane constructs the scheme-specific plane for a segment.
	BuildPlane func(seg *Segment) Plane
	// SegmentLoop gives segment seg's event loop; several segments may
	// share one. The segment's backhaul and plane are built on it.
	SegmentLoop func(seg int) *sim.Loop
	// TrunkLink returns a fresh transport for one trunk direction from
	// segment from into segment to: a LoopTransport when both share a
	// loop, otherwise typically a typed-envelope channel over the
	// sim.Mailbox bound to that directed edge. Each call must return a
	// NEW transport: two trunks sharing a directed segment pair
	// (adjacent chain plus a ring bypass) need distinct channels to
	// demultiplex on.
	TrunkLink func(from, to int) TrunkTransport
	// Telemetry, when set, returns segment seg's telemetry scope. Build
	// instruments each segment's backhaul under <scope>/backhaul and its
	// outgoing trunk egress under <scope>/trunk (a middle segment's two
	// trunk directions share one counter pair — the lookup dedups).
	Telemetry func(seg int) telemetry.Scope
	// ExtraTrunks adds bidirectional trunks between non-adjacent segment
	// pairs on top of the adjacent chain (e.g. a ring-closure bypass).
	// The planes must implement ExtraLinker.
	ExtraTrunks [][2]int
	// FaultSeed seeds the per-trunk-direction fault RNG streams used by
	// Trunk.Faults (ignored when the schedule is inactive).
	FaultSeed int64
}

// ExtraLinker is implemented by planes that can terminate trunks beyond
// the adjacent chain (Builder.ExtraTrunks).
type ExtraLinker interface {
	ConnectExtra(other Plane, fwd, rev *Trunk)
}

// Build constructs the segments and wires adjacent planes with trunks.
func (b Builder) Build() (*Deployment, error) {
	if len(b.Geoms) == 0 {
		return nil, fmt.Errorf("deploy: a deployment needs at least one segment")
	}
	if b.SegmentLoop == nil || b.TrunkLink == nil {
		return nil, fmt.Errorf("deploy: a Builder needs SegmentLoop and TrunkLink")
	}
	telFor := func(i int) telemetry.Scope {
		if b.Telemetry == nil {
			return telemetry.Scope{}
		}
		return b.Telemetry(i)
	}
	d := &Deployment{}
	apBase := 0
	for i, g := range b.Geoms {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		seg := &Segment{Index: i, APBase: apBase, Geom: g}
		seg.Backhaul = backhaul.New(b.SegmentLoop(i), b.Backhaul)
		seg.Backhaul.SetTelemetry(telFor(i).Sub("backhaul"))
		seg.Backhaul.AddNode(NodeServer, b.ServerHandler(i))
		seg.Plane = b.BuildPlane(seg)
		d.Segments = append(d.Segments, seg)
		apBase += g.NumAPs
	}
	trunkPair := func(i, j int) (fwd, rev *Trunk) {
		fwd = NewTrunkTransport(b.SegmentLoop(i).Now, b.TrunkLink(i, j), b.Trunk)
		rev = NewTrunkTransport(b.SegmentLoop(j).Now, b.TrunkLink(j, i), b.Trunk)
		// Each trunk direction's counters live in the SENDING segment's
		// scope: Deliver runs on the sender's loop, so the handles stay
		// inside that domain's shard.
		if sc := telFor(i).Sub("trunk"); sc.Enabled() {
			fwd.SetTelemetry(sc.Counter("tx_msgs"), sc.Counter("tx_bytes"))
			fwd.metOutageDrops = sc.Counter("outage_drops")
			fwd.metFaultDrops = sc.Counter("fault_drops")
		}
		if sc := telFor(j).Sub("trunk"); sc.Enabled() {
			rev.SetTelemetry(sc.Counter("tx_msgs"), sc.Counter("tx_bytes"))
			rev.metOutageDrops = sc.Counter("outage_drops")
			rev.metFaultDrops = sc.Counter("fault_drops")
		}
		if b.Trunk.Faults.Active() {
			// Each direction draws from its own stream so serial and
			// parallel domain executions see identical sequences.
			fwd.InstallFaults(b.Trunk.Faults, i, j,
				sim.NewRNG(b.FaultSeed).Fork(fmt.Sprintf("trunk%d-%d", i, j)))
			rev.InstallFaults(b.Trunk.Faults, j, i,
				sim.NewRNG(b.FaultSeed).Fork(fmt.Sprintf("trunk%d-%d", j, i)))
		}
		d.Trunks = append(d.Trunks, fwd, rev)
		return fwd, rev
	}
	for i := 0; i+1 < len(d.Segments); i++ {
		fwd, rev := trunkPair(i, i+1)
		d.Segments[i].Plane.ConnectNext(d.Segments[i+1].Plane, fwd, rev)
	}
	for _, e := range b.ExtraTrunks {
		i, j := e[0], e[1]
		if i == j || i < 0 || j < 0 || i >= len(d.Segments) || j >= len(d.Segments) {
			return nil, fmt.Errorf("deploy: extra trunk %d-%d out of range", i, j)
		}
		pi, ok := d.Segments[i].Plane.(ExtraLinker)
		if !ok {
			return nil, fmt.Errorf("deploy: segment %d's plane cannot terminate extra trunks", i)
		}
		fwd, rev := trunkPair(i, j)
		pi.ConnectExtra(d.Segments[j].Plane, fwd, rev)
	}
	return d, nil
}

// TrunkConfig sets the inter-segment controller-to-controller link's
// physical parameters.
type TrunkConfig struct {
	// LinkMbps is the trunk line rate.
	LinkMbps float64
	// PropDelay is the one-way latency (fiber + two switch hops).
	PropDelay sim.Duration
	// Faults is the deterministic fault-injection schedule applied to
	// every trunk (zero value: no faults).
	Faults FaultSchedule
}

// DefaultTrunkConfig models a metro fiber ring hop between street
// cabinets.
func DefaultTrunkConfig() TrunkConfig {
	return TrunkConfig{
		LinkMbps:  1000,
		PropDelay: 200 * sim.Microsecond,
	}
}

// trunkEncapOverhead mirrors the backhaul's per-message wire overhead.
const trunkEncapOverhead = 66

// Trunk is one direction of an inter-segment link: reliable, FIFO,
// serialization at the line rate plus fixed propagation. now reads the
// sending side's clock and a TrunkTransport carries each message to the
// receiving side: one event on a loop both ends share, or a typed
// envelope crossing domains (and, partitioned, processes). Because the
// arrival is always at least PropDelay after the sender's now,
// PropDelay lower-bounds the trunk's latency and serves as the
// conservative-sync lookahead.
type Trunk struct {
	now     func() sim.Time
	link    TrunkTransport
	cfg     TrunkConfig
	free    sim.Time // egress availability
	deliver func(msg packet.Message)

	// Fault injection (InstallFaults); nil frng means no random faults.
	outages    []Outage
	dropProb   float64
	jitterMax  sim.Duration
	frng       *sim.RNG
	lastArrive sim.Time

	// OutageDrops and FaultDrops count messages lost to scheduled
	// outages and to random drops respectively.
	OutageDrops int
	FaultDrops  int

	// Egress telemetry (nil-safe no-ops until SetTelemetry).
	metMsgs        *telemetry.Counter
	metBytes       *telemetry.Counter
	metOutageDrops *telemetry.Counter
	metFaultDrops  *telemetry.Counter
}

// TrunkTransport carries one trunk direction's messages to the
// receiving segment: Post ships a message for arrival there at the
// given virtual time, and OnDeliver registers the receiving side's
// callback. Between segments on one loop it is a LoopTransport; across
// a domain (and possibly process) boundary each instance is one
// demultiplexing channel of typed sim.Mailbox envelopes.
type TrunkTransport interface {
	Post(at sim.Time, msg packet.Message)
	OnDeliver(fn func(msg packet.Message))
}

// LoopTransport is the TrunkTransport between two segments that run on
// one event loop: each message is one event on that loop at its arrival
// time.
type LoopTransport struct {
	loop *sim.Loop
	fn   func(msg packet.Message)
	// free recycles in-flight message records (see Post).
	free []*loopMsg
}

// loopMsg is one message in flight on a LoopTransport; fire is bound
// once, when the record is made.
type loopMsg struct {
	msg  packet.Message
	fire func()
}

// NewLoopTransport returns a transport delivering on loop.
func NewLoopTransport(loop *sim.Loop) *LoopTransport { return &LoopTransport{loop: loop} }

// Post implements TrunkTransport. The message rides a record from the
// transport's pool that returns to it when its event fires, so a post
// allocates nothing once the pool holds a record.
func (l *LoopTransport) Post(at sim.Time, msg packet.Message) {
	var r *loopMsg
	if k := len(l.free); k > 0 {
		r = l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
	} else {
		r = &loopMsg{}
		r.fire = func() { l.arrive(r) }
	}
	r.msg = msg
	l.loop.At(at, r.fire)
}

// arrive hands r's message to the receiving side, returning r to the
// pool first so the record pins no message while the callback runs.
func (l *LoopTransport) arrive(r *loopMsg) {
	msg := r.msg
	r.msg = nil
	l.free = append(l.free, r)
	l.fn(msg)
}

// OnDeliver implements TrunkTransport.
func (l *LoopTransport) OnDeliver(fn func(msg packet.Message)) { l.fn = fn }

// NewTrunkTransport builds one trunk direction whose arrivals travel
// over link. The transport's delivery callback reads the trunk's
// deliver hook at call time, so planes may wire it after construction.
func NewTrunkTransport(now func() sim.Time, link TrunkTransport, cfg TrunkConfig) *Trunk {
	t := &Trunk{now: now, link: link, cfg: cfg}
	link.OnDeliver(func(m packet.Message) { t.deliver(m) })
	return t
}

// SetTelemetry installs the trunk's egress counters. The handles must
// belong to the sending segment's shard (Deliver runs on its loop).
func (t *Trunk) SetTelemetry(msgs, bytes *telemetry.Counter) {
	t.metMsgs, t.metBytes = msgs, bytes
}

// InstallFaults arms the fault schedule on this trunk direction, which
// links segments a and b. Only outages matching that edge apply. rng
// must be a stream dedicated to this direction, seeded independently of
// the deployment's radio/client streams (fault draws must not perturb
// them). Random draws are only taken when the corresponding fault is
// configured, so an outage-only schedule keeps delivery timing
// bit-identical to an unfaulted trunk.
func (t *Trunk) InstallFaults(f FaultSchedule, a, b int, rng *sim.RNG) {
	for _, o := range f.Outages {
		if o.matches(a, b) {
			t.outages = append(t.outages, o)
		}
	}
	t.dropProb = f.DropProb
	t.jitterMax = f.JitterMax
	if t.dropProb > 0 || t.jitterMax > 0 {
		t.frng = rng
	}
}

// Up reports whether the trunk is outside every scheduled outage window
// at the sender's current time.
func (t *Trunk) Up() bool { return t.UpAt(t.now()) }

// UpAt reports outage state at an arbitrary time.
func (t *Trunk) UpAt(at sim.Time) bool {
	for _, o := range t.outages {
		if !at.Before(sim.Time(o.Start)) && at.Before(sim.Time(o.End)) {
			return false
		}
	}
	return true
}

// Deliver implements federation.Link and baseline.Peer.
func (t *Trunk) Deliver(m packet.Message) {
	wire := m.WireLen() + trunkEncapOverhead
	t.metMsgs.Inc()
	t.metBytes.Add(int64(wire))
	start := t.now()
	if len(t.outages) > 0 && !t.UpAt(start) {
		t.OutageDrops++
		t.metOutageDrops.Inc()
		return
	}
	if t.dropProb > 0 && t.frng.Float64() < t.dropProb {
		t.FaultDrops++
		t.metFaultDrops.Inc()
		return
	}
	ser := sim.Duration(float64(wire*8) / t.cfg.LinkMbps * float64(sim.Microsecond))
	if t.free.After(start) {
		start = t.free
	}
	t.free = start.Add(ser)
	arrive := t.free.Add(t.cfg.PropDelay)
	if t.jitterMax > 0 {
		arrive = arrive.Add(sim.Duration(t.frng.Float64() * float64(t.jitterMax)))
		// Jitter must not reorder the FIFO trunk.
		if arrive.Before(t.lastArrive) {
			arrive = t.lastArrive
		}
		t.lastArrive = arrive
	}
	t.link.Post(arrive, m)
}
