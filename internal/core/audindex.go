package core

import (
	"math"

	"wgtt/internal/channel"
	"wgtt/internal/mac"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// The audibility index is the large-deployment fast path of the shared
// medium: instead of evaluating every delivered PPDU at every registered
// node, the medium asks the index for the set of nodes that could
// *plausibly* detect the transmitter, and only those pay the
// per-subcarrier channel evaluation. Soundness rule: the index may
// over-mark freely (a false positive just re-runs the medium's own
// threshold tests, which reject it exactly like the brute-force scan
// would), but it must never under-mark — every node whose large-scale SNR
// plus the constructive-fading headroom could reach the preamble-detection
// threshold must have its bit set. Under that rule, index-on and index-off
// runs are bit-identical: both visit the same detecting receivers in the
// same (registration) order and draw from the RNG identically.
const (
	// audRefreshInterval is how stale the client bucket geometry may
	// get before MarkAudible rebuilds it.
	audRefreshInterval = 5 * sim.Millisecond
	// audSlopM pads every bucket's bounding box against client motion
	// between refreshes: at 5 ms staleness, 5 m covers any client
	// moving slower than 1000 m/s.
	audSlopM = 5.0
	// audBucketM is the x-extent of one client bucket.
	audBucketM = 32.0
	// audFlatMarginDB guards the client↔client skip against the ESNR
	// table's interpolation error (≪ 0.5 dB on a flat channel).
	audFlatMarginDB = 0.5
)

// audAP is one resolved access point: static position (the antenna
// pattern lives in the channel backend).
type audAP struct {
	node *mac.Node
	pos  rf.Position
}

// audBucket groups clients by road position; the box bounds the members'
// positions as of the last refresh, already expanded by audSlopM.
type audBucket struct {
	nodes                  []*mac.Node
	minX, maxX, minY, maxY float64
}

// audIndex implements mac.AudibilityIndex over the deployment geometry of
// one execution domain's medium (the whole network in the one-domain
// shape, one segment's medium partition when split). Node kinds resolve lazily
// through the nodes' Tags (refOf) because kinds are recorded just after mac
// registration; a node whose kind never resolves is simply always marked.
type audIndex struct {
	n    *Network
	loop *sim.Loop

	// entries holds the registered nodes in registration order.
	entries []*mac.Node

	// Resolved views, rebuilt by refresh().
	aps     []audAP
	buckets map[int]*audBucket
	unknown []*mac.Node
	free    []*audBucket

	fresh       bool
	refreshedAt sim.Time

	// headroomDB mirrors the channel's DetectHeadroomDB bound.
	headroomDB float64
}

func newAudIndex(n *Network, loop *sim.Loop) *audIndex {
	return &audIndex{
		n:          n,
		loop:       loop,
		buckets:    make(map[int]*audBucket),
		headroomDB: n.model.DetectHeadroomDB(),
	}
}

// Register implements mac.AudibilityIndex.
func (ix *audIndex) Register(n *mac.Node) {
	ix.entries = append(ix.entries, n)
	ix.fresh = false
}

// Unregister implements mac.AudibilityIndex.
func (ix *audIndex) Unregister(n *mac.Node) {
	out := ix.entries[:0]
	for _, x := range ix.entries {
		if x != n {
			out = append(out, x)
		}
	}
	for i := len(out); i < len(ix.entries); i++ {
		ix.entries[i] = nil
	}
	ix.entries = out
	ix.fresh = false
}

// refresh rebuilds the resolved AP list and the client buckets from
// current positions.
func (ix *audIndex) refresh() {
	ix.aps = ix.aps[:0]
	ix.unknown = ix.unknown[:0]
	for k, b := range ix.buckets {
		b.nodes = b.nodes[:0]
		ix.free = append(ix.free, b)
		delete(ix.buckets, k)
	}
	for _, node := range ix.entries {
		ref, ok := refOf(node)
		switch {
		case !ok:
			ix.unknown = append(ix.unknown, node)
		case ref.isAP:
			ix.aps = append(ix.aps, audAP{node: node, pos: node.Pos()})
		default:
			pos := node.Pos()
			key := int(math.Floor(pos.X / audBucketM))
			b := ix.buckets[key]
			if b == nil {
				if k := len(ix.free); k > 0 {
					b = ix.free[k-1]
					ix.free[k-1] = nil
					ix.free = ix.free[:k-1]
				} else {
					b = &audBucket{}
				}
				b.minX, b.maxX = pos.X, pos.X
				b.minY, b.maxY = pos.Y, pos.Y
				ix.buckets[key] = b
			}
			b.nodes = append(b.nodes, node)
			b.minX = math.Min(b.minX, pos.X)
			b.maxX = math.Max(b.maxX, pos.X)
			b.minY = math.Min(b.minY, pos.Y)
			b.maxY = math.Max(b.maxY, pos.Y)
		}
	}
	for _, b := range ix.buckets {
		b.minX -= audSlopM
		b.maxX += audSlopM
		b.minY -= audSlopM
		b.maxY += audSlopM
	}
	ix.fresh = true
	ix.refreshedAt = ix.loop.Now()
}

// MarkAudible implements mac.AudibilityIndex.
func (ix *audIndex) MarkAudible(tx *mac.Node, bitmap []uint64) {
	if !ix.fresh || ix.loop.Now() > ix.refreshedAt.Add(audRefreshInterval) {
		ix.refresh()
	}
	// Unknown-kind nodes can be anything anywhere: always candidates.
	for _, n := range ix.unknown {
		markBit(bitmap, n)
	}
	ref, ok := refOf(tx)
	if !ok {
		// Unknown transmitter: no geometric bound applies.
		for _, n := range ix.entries {
			markBit(bitmap, n)
		}
		return
	}
	if ref.isAP {
		ix.markFromAP(tx, bitmap)
	} else {
		ix.markFromClient(tx, bitmap)
	}
}

// markFromAP marks every plausible receiver of an AP transmission.
func (ix *audIndex) markFromAP(tx *mac.Node, bitmap []uint64) {
	pos := tx.Pos()
	model := ix.n.model
	// AP → AP sensing is a hard range cutoff in netChannel; beyond it
	// the flat −10 dB channel fails SubcarrierSNRs outright.
	for _, ap := range ix.aps {
		if pos.Distance(ap.pos) <= ix.n.Cfg.APAPSenseRangeM {
			markBit(bitmap, ap.node)
		}
	}
	// AP → client: bound the large-scale SNR over the bucket box.
	for _, b := range ix.buckets {
		bound := model.MaxSNRAPToBoxDB(pos, boxOf(b))
		if bound+ix.headroomDB >= mac.DetectThresholdDB {
			for _, n := range b.nodes {
				markBit(bitmap, n)
			}
		}
	}
}

// markFromClient marks every plausible receiver of a client transmission.
// The transmitter's position is read now — the same instant the medium
// evaluates the channel — so only the receiving buckets carry slop.
func (ix *audIndex) markFromClient(tx *mac.Node, bitmap []uint64) {
	pos := tx.Pos()
	model := ix.n.model
	// Client → AP: reciprocal of the downlink budget, exact positions.
	for _, ap := range ix.aps {
		bound := model.MaxSNRClientToAPDB(pos, ap.pos)
		if bound+ix.headroomDB >= mac.DetectThresholdDB {
			markBit(bitmap, ap.node)
		}
	}
	// Client → client: the flat vehicle-to-vehicle budget with the
	// bucket's nearest point; no fading, so no headroom term — just an
	// interpolation-error margin on the detect threshold.
	for _, b := range ix.buckets {
		snr := model.ClientClientSNRdB(boxDistance(pos, b))
		if snr >= mac.DetectThresholdDB-audFlatMarginDB {
			for _, n := range b.nodes {
				markBit(bitmap, n)
			}
		}
	}
}

// boxOf converts a bucket's (already slop-expanded) bounds to the
// backend's box geometry.
func boxOf(b *audBucket) channel.Box {
	return channel.Box{MinX: b.minX, MaxX: b.maxX, MinY: b.minY, MaxY: b.maxY}
}

// markBit sets the node's seq bit in the medium's candidate bitmap.
func markBit(bitmap []uint64, n *mac.Node) {
	seq := n.Seq()
	if w := seq >> 6; w < len(bitmap) {
		bitmap[w] |= 1 << (seq & 63)
	}
}

// boxDistance returns the distance from p to the nearest point of the
// bucket's (already slop-expanded) box; zero when p is inside.
func boxDistance(p rf.Position, b *audBucket) float64 {
	dx := math.Max(0, math.Max(b.minX-p.X, p.X-b.maxX))
	dy := math.Max(0, math.Max(b.minY-p.Y, p.Y-b.maxY))
	return math.Hypot(dx, dy)
}
