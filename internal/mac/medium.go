package mac

import (
	"math"
	"math/bits"

	"wgtt/internal/csi"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Channel supplies the instantaneous radio state between two nodes. The
// core package implements it over rf.Link realizations; mac stays agnostic
// of geometry.
//
// The medium evaluates one PPDU at all its candidate receivers
// concurrently (Loop.Fan), so a Channel must serve calls from several
// goroutines at once without a data race. SubcarrierSNRs then runs for
// distinct receivers of one transmitter, never twice on one pair or its
// reverse, so per-link scratch state is safe there; SenseSNRdB and
// SenseBoundDB may run concurrently for any pairs, a pair and its
// reverse included, so they must write nothing but state a sync.Once
// guards (a link's first-use realization, DESIGN.md §10). Everything
// else a call reads, positions included, stays unwritten while a
// delivery is evaluated.
type Channel interface {
	// SubcarrierSNRs fills dst (rf.NumSubcarriers long) with the
	// per-subcarrier SNR in dB at rx for a transmission from tx. It
	// reports whether rx can hear tx at all (audible) and whether it
	// filled dst (filled, never true without audible). senseDB is
	// SenseSNRdB(tx, rx) at the same instant, which the medium has
	// already evaluated: a channel that derives the subcarrier SNRs
	// from the large-scale SNR starts from it rather than evaluating it
	// again. A channel may leave an audible pair unfilled, and dst
	// unspecified, only when every SNR it would write is below floorDB;
	// what it does fill must not depend on floorDB, and a −Inf floor
	// always fills an audible pair.
	SubcarrierSNRs(tx, rx *Node, senseDB, floorDB float64, dst []float64) (audible, filled bool)
	// SenseSNRdB returns the large-scale SNR rx observes from tx, used
	// for carrier sensing (energy detection ignores fast fading).
	SenseSNRdB(tx, rx *Node) float64
}

// DetectHeadroomer is an optional Channel capability: the maximum dB by
// which any per-subcarrier SNR (and hence the effective SNR) can exceed
// the large-scale SenseSNRdB, i.e. an upper bound on constructive fast
// fading plus a safety margin. When a channel provides it, the medium
// rejects receivers with SenseSNRdB + headroom < detectThresholdDB before
// paying for the per-subcarrier fill — a pure fast path that can never
// skip a node the full evaluation would have detected.
type DetectHeadroomer interface {
	DetectHeadroomDB() float64
}

// SenseBounder is an optional Channel capability: an upper bound on
// SenseSNRdB(tx, rx) that is cheaper than the exact value (core's skips
// the shadowing sum). ok is false when the channel has no bound for the
// pair.
// The medium's threshold checks (carrier sense, collisions) consult it
// first and evaluate SenseSNRdB only when the bound does not settle the
// comparison, so a bound must never fall below the exact value — not
// even by one rounding step — or a decision would change.
type SenseBounder interface {
	SenseBoundDB(tx, rx *Node) (bound float64, ok bool)
}

// AudibilityIndex is an optional spatial prefilter over the medium's
// registered nodes. MarkAudible must set the bit Node.Seq() for every
// registered node that could plausibly detect a transmission from tx —
// false positives merely cost the normal per-node evaluation, but a false
// negative would silently change delivery, so implementations must be
// strictly conservative (when in doubt, mark the bit). The medium still
// applies its own threshold tests to every marked node, which is what
// keeps index-on and index-off runs bit-identical.
type AudibilityIndex interface {
	// Register and Unregister mirror the medium's node set.
	Register(n *Node)
	Unregister(n *Node)
	// MarkAudible sets candidate bits (indexed by Node.Seq()) in bitmap.
	MarkAudible(tx *Node, bitmap []uint64)
}

// Detection is what a receiver learns from one PPDU: per-MPDU decode
// outcomes and the CSI measured on the frame.
type Detection struct {
	// OK[i] reports whether MPDU i decoded (FrameData only). The slice
	// is the medium's per-delivery scratch: it is valid only for the
	// duration of the OnReceive call and is recycled afterwards, so a
	// receiver that needs the outcomes later must copy them.
	OK []bool
	// Collided marks the whole PPDU destroyed by an overlapping
	// transmission.
	Collided bool
	// SNRsDB is the CSI snapshot measured on this reception.
	SNRsDB [rf.NumSubcarriers]float64
	// ESNRdB is the effective SNR at the frame's modulation.
	ESNRdB float64
}

// Receiver consumes deliveries from the medium.
type Receiver interface {
	// OnReceive fires at PPDU end for every audible node except the
	// transmitter. Frames whose preamble was undetectable are filtered
	// before this call.
	OnReceive(t *Transmission, det Detection)
}

// Node is one radio on the channel.
type Node struct {
	Name string
	Addr packet.MAC
	// Pos reports the node's current position (mobile for clients).
	Pos func() rf.Position
	// Recv handles deliveries; nil nodes only transmit.
	Recv Receiver
	// transmitting marks an in-flight PPDU from this node.
	transmitting bool
	// seq is the node's slot in the owning medium's bySeq table,
	// assigned at Register. Audibility indexes address nodes by it.
	seq int
	// Tag is an opaque value for whoever builds the node; the medium
	// never reads it. core stores the node's kind and index in it, so
	// its Channel resolves a node without a map lookup.
	Tag int
}

// Seq returns the node's registration slot on its current medium, the
// bit position an AudibilityIndex uses in MarkAudible bitmaps.
func (n *Node) Seq() int { return n.seq }

// Thresholds (dB over noise floor).
const (
	// senseThresholdDB: energy above this is "channel busy" (≈ −82 dBm
	// CCA with a −95 dBm floor).
	senseThresholdDB = 13
	// detectThresholdDB: below this a preamble is undetectable.
	detectThresholdDB = 1
	// captureMarginDB: a frame survives an overlap when it is this much
	// stronger than the interferer (preamble capture).
	captureMarginDB = 10
	// fillFloorDB is the floor the medium hands SubcarrierSNRs: a fill
	// with every subcarrier below it stops unfilled. ESNR never exceeds
	// the largest subcarrier SNR by more than the BER tables' rounding,
	// and fillFloorMarginDB covers that rounding (TestFillFloorMargin),
	// so a stopped reception is one whose ESNR would have come out under
	// detectThresholdDB: not heard, with nothing drawn or scheduled.
	fillFloorMarginDB = 1e-6
	fillFloorDB       = detectThresholdDB - fillFloorMarginDB
)

// DetectThresholdDB exposes the preamble-detection threshold for index
// implementations and their tests.
const DetectThresholdDB = detectThresholdDB

// Medium is the shared 2.4 GHz channel: it arbitrates access (CSMA with
// binary-exponential-style backoff), applies the ESNR→PER error model per
// MPDU per receiver, and resolves collisions with capture.
type Medium struct {
	loop    *sim.Loop
	channel Channel
	rng     *sim.RNG
	nodes   []*Node
	active  []*Transmission
	stats   MediumStats

	// bySeq maps Node.seq → node, with nil holes after Unregister. Its
	// non-nil entries are always in registration order — the same order
	// as m.nodes — so bitmap-driven delivery visits receivers exactly
	// like the brute-force scan does.
	bySeq []*Node
	// index, when set, prunes deliverAll to plausibly-audible nodes.
	index AudibilityIndex
	// audBits is the reusable MarkAudible bitmap.
	audBits []uint64

	// headroomDB caches the channel's DetectHeadroomDB capability;
	// bounder is the channel's SenseBounder capability, nil without it.
	headroomDB  float64
	hasHeadroom bool
	bounder     SenseBounder

	// onTransmit, when set, observes every transmission as it goes on
	// air (the cross-domain boundary-interference exchange taps it).
	onTransmit func(t *Transmission)
	// interference, when set, returns the summed linear
	// interference-over-noise a receiver accumulates during t from
	// sources this medium cannot model itself (remote-domain
	// transmissions), and whether any such source overlapped t. Zero
	// means none; a positive value is applied as a flat per-subcarrier
	// SINR penalty before the ESNR evaluation. interferenceHits counts
	// the evaluated receptions with an overlap.
	interference     func(rx *Node, t *Transmission) (iLin float64, hit bool)
	interferenceHits int

	// recs holds one slot per candidate receiver of the PPDU being
	// delivered, which cur names while its candidates are evaluated;
	// evalFn is evaluate, bound once so a fan-out allocates nothing.
	recs   []reception
	cur    *Transmission
	evalFn func(i int)

	// txFree recycles pooled Transmissions (see NewTransmission);
	// okScratch is the shared per-delivery Detection.OK buffer.
	txFree    []*Transmission
	okScratch []bool
	// grantFree recycles contention-grant records (see Contend).
	grantFree []*grant
}

// grant is one pending contention grant: node n wins a transmit
// opportunity when the record's event fires, unless it senses the
// channel busy again. fire is bound once, when the record is made, so a
// contention allocates nothing once the medium's pool holds a record.
type grant struct {
	n    *Node
	cb   func()
	fire func()
}

// reception is one candidate receiver's evaluation of the PPDU being
// delivered, written by evaluate and read by commit.
type reception struct {
	rx *Node
	// outcome is where the evaluation ended; esnr, snrs and collided
	// are meaningful only when it is heard. remote reports that the
	// interference hook found a remote-domain overlap.
	outcome          outcome
	collided, remote bool
	esnr             float64
	snrs             [rf.NumSubcarriers]float64
}

// outcome is where a candidate's evaluation ended.
type outcome uint8

const (
	inaudible   outcome = iota // the channel reports rx cannot hear tx
	prefiltered                // the headroom prefilter settled it
	belowFloor                 // the fill stopped: every SNR under fillFloorDB
	undetected                 // ESNR under detectThresholdDB
	heard                      // a detectable preamble, collided or not
)

// MediumStats counts medium-level events.
type MediumStats struct {
	PPDUs      int
	MPDUs      int
	MPDULosses int
	Collisions int
	// Receptions by where their evaluation ended, counted at commit:
	// every candidate committed, those the headroom prefilter settled,
	// those whose fill stopped below the floor, and those heard.
	Evaluated   int
	Prefiltered int
	BelowFloor  int
	Heard       int
}

// NewMedium creates the channel on the given loop.
func NewMedium(loop *sim.Loop, channel Channel, rng *sim.RNG) *Medium {
	m := &Medium{loop: loop, channel: channel, rng: rng}
	m.evalFn = m.evaluate
	if h, ok := channel.(DetectHeadroomer); ok {
		m.headroomDB = h.DetectHeadroomDB()
		m.hasHeadroom = true
	}
	m.bounder, _ = channel.(SenseBounder)
	return m
}

// SetOnTransmit installs (or, with nil, removes) the on-air observation
// hook; it fires synchronously inside Transmit after Start/End are
// stamped. The observer must not mutate or retain the transmission.
func (m *Medium) SetOnTransmit(fn func(t *Transmission)) { m.onTransmit = fn }

// SetInterference installs (or, with nil, removes) the external
// interference source consulted per candidate receiver (see the
// interference field). Nil keeps the delivery path bit-identical to a
// hook-free medium. The hook runs in the evaluation phase, concurrently
// for the distinct receivers of one PPDU (see Channel), so it must have
// no side effects: it reports an overlap through hit, which the medium
// counts (InterferenceHits), instead of counting it itself.
func (m *Medium) SetInterference(fn func(rx *Node, t *Transmission) (iLin float64, hit bool)) {
	m.interference = fn
}

// InterferenceHits returns the number of evaluated receptions for which
// the interference hook reported an overlapping remote source.
func (m *Medium) InterferenceHits() int { return m.interferenceHits }

// SetAudibilityIndex installs (or, with nil, removes) the spatial
// prefilter. Already-registered nodes are replayed into the index so it
// can be attached after the plane is built.
func (m *Medium) SetAudibilityIndex(idx AudibilityIndex) {
	m.index = idx
	if idx != nil {
		for _, n := range m.nodes {
			idx.Register(n)
		}
	}
}

// Register attaches a node to the channel.
func (m *Medium) Register(n *Node) {
	n.seq = len(m.bySeq)
	m.bySeq = append(m.bySeq, n)
	m.nodes = append(m.nodes, n)
	if m.index != nil {
		m.index.Register(n)
	}
}

// Unregister detaches a node from the channel: the node stops hearing
// deliveries, its in-flight transmissions are silenced (their delivery
// events canceled), and its pending contention grants are abandoned (the
// grant event finds the node gone and returns). Used by cross-segment
// client migration; the node can later be Registered on another medium.
func (m *Medium) Unregister(n *Node) {
	out := m.nodes[:0]
	for _, x := range m.nodes {
		if x != n {
			out = append(out, x)
		}
	}
	for i := len(out); i < len(m.nodes); i++ {
		m.nodes[i] = nil
	}
	m.nodes = out

	if n.seq < len(m.bySeq) && m.bySeq[n.seq] == n {
		m.bySeq[n.seq] = nil
	}
	if m.index != nil {
		m.index.Unregister(n)
	}
	// Migration churn leaves nil holes; when they dominate, renumber.
	// Compaction preserves relative order, so delivery order (and hence
	// the RNG stream) is unaffected.
	if len(m.bySeq) >= 256 && len(m.nodes)*2 < len(m.bySeq) {
		m.bySeq = m.bySeq[:0]
		for _, x := range m.nodes {
			x.seq = len(m.bySeq)
			m.bySeq = append(m.bySeq, x)
		}
	}

	act := m.active[:0]
	for _, t := range m.active {
		if t.Tx == n {
			m.loop.Cancel(t.deliverEv)
			n.transmitting = false
			m.releaseTx(t)
			continue
		}
		act = append(act, t)
	}
	for i := len(act); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = act
}

// registered reports whether n is attached to this medium: bySeq holds
// exactly the registered nodes, each at its own seq.
func (m *Medium) registered(n *Node) bool {
	return n.seq < len(m.bySeq) && m.bySeq[n.seq] == n
}

// Stats returns medium counters.
func (m *Medium) Stats() MediumStats { return m.stats }

// NewTransmission returns a zeroed Transmission from the medium's free
// list. Pooled transmissions are recycled once they leave m.active (at
// the post-delivery prune, or at Unregister), so the caller — and every
// receiver — must not retain the pointer past its OnReceive/scheduled
// callbacks; copy the fields that outlive the delivery (typically
// Tx.Addr and the BA window) instead. Transmissions built as literals
// are never recycled, which is what tests and cold paths rely on.
func (m *Medium) NewTransmission() *Transmission {
	if k := len(m.txFree); k > 0 {
		t := m.txFree[k-1]
		m.txFree[k-1] = nil
		m.txFree = m.txFree[:k-1]
		return t
	}
	return &Transmission{pooled: true}
}

// releaseTx recycles a pooled transmission. MPDU slices are owned by the
// sender's aggregator, so the reset only drops the reference; the bound
// delivery callback stays for the transmission's next Transmit.
func (m *Medium) releaseTx(t *Transmission) {
	if !t.pooled {
		return
	}
	*t = Transmission{pooled: true, deliver: t.deliver}
	m.txFree = append(m.txFree, t)
}

// navEnd returns the time until which t occupies the medium for carrier
// sense: PPDU end, extended by the SIFS + block-ACK NAV reservation for
// unicast data.
func navEnd(t *Transmission) sim.Time {
	if t.expectsBA {
		return t.End.Add(phy.SIFS + phy.BlockAckAirtime)
	}
	return t.End
}

// busyUntil returns the time until which node n senses the channel busy,
// including NAV reservations for pending block ACKs.
func (m *Medium) busyUntil(n *Node) sim.Time {
	var until sim.Time
	for _, t := range m.active {
		end := navEnd(t)
		if end <= m.loop.Now() {
			continue
		}
		if t.Tx == n || m.senseSNRdB(t.Tx, n, senseThresholdDB) >= senseThresholdDB {
			if end > until {
				until = end
			}
		}
	}
	return until
}

// BlockAckOnAir reports whether a block ACK from another node is
// currently on the air audible to n. Secondary responders (non-serving
// APs acking an uplink frame) use this as their CCA check before sending
// a redundant ack; BAs that started within the last 500 ns are invisible
// (the radio's CCA blind window), which is what makes the rare residual
// ack collisions of Table 3 possible.
func (m *Medium) BlockAckOnAir(n *Node) bool {
	now := m.loop.Now()
	for _, t := range m.active {
		if t.Type != FrameBlockAck || t.Tx == n {
			continue
		}
		if t.End <= now || t.Start > now.Add(-500*sim.Nanosecond) {
			continue
		}
		if m.senseSNRdB(t.Tx, n, senseThresholdDB) >= senseThresholdDB {
			return true
		}
	}
	return false
}

// Contend schedules cb to run when node n wins a transmit opportunity:
// wait for the channel to go idle (as n senses it), then DIFS plus a
// random backoff in [0, cw) slots, re-deferring if the channel got busy
// meanwhile. cw ≤ 0 uses CWMin.
//
// The pending grant is a record from the medium's pool whose event
// callback was bound when the record was made; a re-deferral schedules
// the same record again, and the record returns to the pool when its
// grant fires, whether it runs cb or finds n unregistered. So cb should
// be bound once by its owner (a method value kept in a field): a
// contention then allocates nothing.
func (m *Medium) Contend(n *Node, cw int, cb func()) {
	if cw <= 0 {
		cw = 16
	}
	slots := m.rng.Intn(cw)
	g := m.newGrant()
	g.n, g.cb = n, cb
	m.contendAfter(g, slots)
}

// newGrant returns a pooled (or fresh) grant record.
func (m *Medium) newGrant() *grant {
	if k := len(m.grantFree); k > 0 {
		g := m.grantFree[k-1]
		m.grantFree[k-1] = nil
		m.grantFree = m.grantFree[:k-1]
		return g
	}
	g := &grant{}
	g.fire = func() { m.fireGrant(g) }
	return g
}

// contendAfter schedules g's grant DIFS plus slots backoff slots after
// the channel goes idle as g.n senses it.
func (m *Medium) contendAfter(g *grant, slots int) {
	start := m.loop.Now()
	if bu := m.busyUntil(g.n); bu > start {
		start = bu
	}
	m.loop.At(start.Add(phy.DIFS+sim.Duration(slots)*phy.Slot), g.fire)
}

// fireGrant runs when g's grant event fires.
func (m *Medium) fireGrant(g *grant) {
	n, cb := g.n, g.cb
	// The node may have been Unregistered (migrated to another
	// segment's medium) while the grant was pending; its channel
	// realizations are no longer ours to touch.
	if !m.registered(n) {
		m.releaseGrant(g)
		return
	}
	// The channel may have become busy again; freeze the backoff and
	// resume after it clears (approximating 802.11's counter freeze
	// with a single remaining-slot re-draw).
	if m.busyUntil(n) > m.loop.Now() {
		m.contendAfter(g, m.rng.Intn(4))
		return
	}
	m.releaseGrant(g)
	cb()
}

// releaseGrant returns a fired grant record to the pool.
func (m *Medium) releaseGrant(g *grant) {
	g.n, g.cb = nil, nil
	m.grantFree = append(m.grantFree, g)
}

// Transmit puts t on the air now. The caller must not reuse t. Deliveries
// fire at PPDU end for every audible registered node. The PPDU-end
// callback is bound once per Transmission: a pooled one keeps it across
// its recycling, and a literal one binds it here.
func (m *Medium) Transmit(t *Transmission) {
	t.Start = m.loop.Now()
	t.End = t.Start.Add(t.Airtime())
	t.expectsBA = t.Type == FrameData && t.Dst != Broadcast
	t.Tx.transmitting = true
	m.active = append(m.active, t)
	m.stats.PPDUs++
	m.stats.MPDUs += len(t.MPDUs)
	if m.onTransmit != nil {
		m.onTransmit(t)
	}

	t.medium = m
	if t.deliver == nil {
		t.deliver = func() { t.medium.endPPDU(t) }
	}
	t.deliverEv = m.loop.At(t.End, t.deliver)
}

// endPPDU delivers t at its PPDU end.
func (m *Medium) endPPDU(t *Transmission) {
	// The handle must die here: prune may keep t in m.active past this
	// point, and a later Unregister canceling a fired (and possibly
	// recycled) event would hit an unrelated callback.
	t.deliverEv = nil
	t.Tx.transmitting = false
	m.deliverAll(t)
	m.prune()
}

// deliverAll delivers t in two phases after gathering its candidate
// receivers. Evaluation (evaluate) computes every candidate's reception
// into a slot of its own, with no side effects, concurrently where the
// loop lends helpers. Commit (commit) then walks the slots in candidate
// order and does all that changes state: stats, PER draws and OnReceive.
// So the RNG stream, and every decision, is the one a candidate-by-
// candidate walk produces.
func (m *Medium) deliverAll(t *Transmission) {
	m.gather(t)
	m.cur = t
	m.loop.Fan(len(m.recs), m.evalFn)
	m.cur = nil
	m.commit(t)
}

// gather collects t's potential receivers into m.recs. With an
// audibility index installed only the marked candidates are collected;
// the set bits are walked in ascending seq order, which is registration
// order — the same order the brute-force scan uses — so both paths draw
// from the RNG identically.
func (m *Medium) gather(t *Transmission) {
	m.recs = m.recs[:0]
	if m.index == nil {
		for _, n := range m.nodes {
			if n != t.Tx && n.Recv != nil {
				m.addCandidate(n)
			}
		}
		return
	}
	words := (len(m.bySeq) + 63) / 64
	if cap(m.audBits) < words {
		m.audBits = make([]uint64, words)
	}
	m.audBits = m.audBits[:words]
	for i := range m.audBits {
		m.audBits[i] = 0
	}
	m.index.MarkAudible(t.Tx, m.audBits)
	for w, word := range m.audBits {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			n := m.bySeq[i]
			if n != nil && n != t.Tx && n.Recv != nil {
				m.addCandidate(n)
			}
		}
	}
}

// addCandidate appends a slot for receiver n; evaluate fills the rest.
func (m *Medium) addCandidate(n *Node) {
	if k := len(m.recs); k < cap(m.recs) {
		m.recs = m.recs[:k+1]
		m.recs[k].rx = n
		return
	}
	m.recs = append(m.recs, reception{rx: n})
}

// evaluate computes candidate i's reception of m.cur into m.recs[i] and
// writes nothing else. It reads positions (pure functions of time), the
// channel, m.active and the interference hook's state, none of which a
// delivery's commit can change for the same PPDU: the block ACKs
// OnReceive sends go on air one SIFS later, a transmission started at
// t.End never overlaps t, and migrations happen in their own events.
// The large-scale SNR is evaluated once and serves both the headroom
// prefilter and the per-subcarrier fill. The prefilter takes the exact
// value, not the SenseBounder bound: the audibility index has already
// dropped the receivers a bound would settle.
//
// Evaluation stops where the outcome is decided. The fill takes
// fillFloorDB and may stop with every subcarrier under it, which
// decides "not heard" before any ESNR; the interference hook still
// runs for every audible candidate, so the overlaps it reports are
// counted whatever the fill did. Its penalty only lowers SNRs, so the
// floor needs no term for it.
func (m *Medium) evaluate(i int) {
	r := &m.recs[i]
	t, n := m.cur, r.rx
	r.outcome, r.collided, r.remote = inaudible, false, false
	sense := m.channel.SenseSNRdB(t.Tx, n)
	if m.hasHeadroom && sense+m.headroomDB < detectThresholdDB {
		// Even maximally constructive fading cannot lift this receiver
		// over the detection threshold; skip the per-subcarrier fill.
		r.outcome = prefiltered
		return
	}
	audible, filled := m.channel.SubcarrierSNRs(t.Tx, n, sense, fillFloorDB, r.snrs[:])
	if !audible {
		return
	}
	if m.interference != nil {
		iLin, hit := m.interference(n, t)
		r.remote = hit
		if iLin > 0 && filled {
			// Remote-domain co-channel energy raises the noise floor:
			// SINR = SNR − 10·log10(1 + I/N), flat across subcarriers
			// (only the interferer's large-scale budget is known).
			pen := 10 * math.Log10(1+iLin)
			for k := range r.snrs {
				r.snrs[k] -= pen
			}
		}
	}
	if !filled {
		r.outcome = belowFloor
		return
	}
	esnr := csi.EffectiveSNRdB(r.snrs[:], t.Rate.Modulation)
	if esnr < detectThresholdDB {
		r.outcome = undetected
		return
	}
	r.outcome, r.esnr = heard, esnr
	r.collided = m.collided(t, n, esnr)
}

// commit applies the evaluated receptions of t in candidate order. A
// candidate that an earlier receiver's OnReceive unregistered is
// skipped, as a walk over the live node set would skip it.
func (m *Medium) commit(t *Transmission) {
	for i := range m.recs {
		r := &m.recs[i]
		n := r.rx
		if !m.registered(n) {
			continue
		}
		m.stats.Evaluated++
		switch r.outcome {
		case prefiltered:
			m.stats.Prefiltered++
		case belowFloor:
			m.stats.BelowFloor++
		case heard:
			m.stats.Heard++
		}
		if r.remote {
			m.interferenceHits++
		}
		if r.outcome != heard {
			continue
		}
		det := Detection{ESNRdB: r.esnr, SNRsDB: r.snrs}
		if r.collided {
			det.Collided = true
			if len(t.MPDUs) > 0 {
				det.OK = m.okBuf(len(t.MPDUs))
				m.stats.MPDULosses += len(t.MPDUs)
			}
			m.stats.Collisions++
			n.Recv.OnReceive(t, det)
			continue
		}
		if t.Type == FrameData {
			det.OK = m.okBuf(len(t.MPDUs))
			// PER depends on (rate, ESNR, length), and an aggregate's
			// subframes share the first two and mostly the third, so it
			// is evaluated again only when the length changes.
			perLen, per := -1, 0.0
			for k := range t.MPDUs {
				if l := t.MPDUs[k].Pkt.WireLen(); l != perLen {
					perLen, per = l, phy.PER(t.Rate, r.esnr, l)
				}
				ok := m.rng.Float64() >= per
				det.OK[k] = ok
				if !ok {
					m.stats.MPDULosses++
				}
			}
		} else {
			// Control/management frames succeed or fail whole.
			per := phy.PER(t.Rate, r.esnr, frameBytes(t))
			if m.rng.Float64() < per {
				continue // undecodable: receiver never sees it
			}
		}
		n.Recv.OnReceive(t, det)
	}
}

// okBuf returns the shared Detection.OK scratch, zeroed, sized k. Valid
// only until the next delivery on this medium.
func (m *Medium) okBuf(k int) []bool {
	if cap(m.okScratch) < k {
		m.okScratch = make([]bool, k)
	}
	s := m.okScratch[:k]
	for i := range s {
		s[i] = false
	}
	return s
}

// collided reports whether an overlapping transmission destroys t at
// receiver n (interferer within captureMarginDB of t's signal).
func (m *Medium) collided(t *Transmission, n *Node, esnrT float64) bool {
	floor := esnrT - captureMarginDB
	for _, o := range m.active {
		if o == t || o.Tx == t.Tx || o.Tx == n {
			continue
		}
		if o.End <= t.Start || o.Start >= t.End {
			continue
		}
		if m.senseSNRdB(o.Tx, n, floor) > floor {
			return true
		}
	}
	return false
}

// senseSNRdB returns SenseSNRdB(tx, rx) for a caller that only compares
// it against floor, with ≥ or >. When the channel's SenseBounder bound
// is already below floor, so is the exact value, and the bound is
// returned instead: either comparison comes out false, as it would have
// on the exact value, so no carrier-sense or collision decision changes.
func (m *Medium) senseSNRdB(tx, rx *Node, floor float64) float64 {
	if m.bounder != nil {
		if b, ok := m.bounder.SenseBoundDB(tx, rx); ok && b < floor {
			return b
		}
	}
	return m.channel.SenseSNRdB(tx, rx)
}

// prune runs after each delivery and eagerly drops transmissions that can
// no longer matter, keeping the overlap scans O(genuinely concurrent). A
// finished transmission o is still needed only while (a) its NAV
// reservation extends past now (carrier sense), or (b) some still-pending
// transmission p overlaps it (p's delivery-time collision check walks
// m.active, and overlap requires o.End > p.Start). Anything transmitted
// in the future starts at ≥ now ≥ o.End and can never overlap o.
func (m *Medium) prune() {
	now := m.loop.Now()
	var minStart sim.Time
	hasPending := false
	for _, t := range m.active {
		// Undelivered means the delivery event is still queued — which
		// includes transmissions ending at this very instant whose
		// callback just hasn't run yet.
		if t.deliverEv != nil && (!hasPending || t.Start < minStart) {
			minStart = t.Start
			hasPending = true
		}
	}
	out := m.active[:0]
	for _, t := range m.active {
		if t.deliverEv != nil || navEnd(t) > now || (hasPending && t.End > minStart) {
			out = append(out, t)
			continue
		}
		m.releaseTx(t)
	}
	for i := len(out); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = out
}

// frameBytes returns the decodable body size of a non-data frame.
func frameBytes(t *Transmission) int {
	switch t.Type {
	case FrameBlockAck:
		return 32
	case FrameBeacon:
		return beaconBytes
	case FrameMgmt:
		return mgmtFrameBytes
	}
	return 0
}
