package mac

import (
	"wgtt/internal/packet"
	"wgtt/internal/phy"
)

// RetryLimit is the per-MPDU transmission limit before a frame is dropped
// (mac80211's default long retry limit).
const RetryLimit = 7

// Aggregator is the transmitter-side A-MPDU engine for one (tx, client)
// pair: it assigns 12-bit MAC sequence numbers, builds aggregates mixing
// retransmissions with fresh packets, and turns block-ACK bitmaps into
// completions and retries. It is deliberately free of queues: the caller
// supplies fresh packets through a pull function, which is how the AP
// plugs its cyclic queue in and the client its socket buffer.
type Aggregator struct {
	nextSeq uint16
	// retry holds MPDUs awaiting retransmission, in seq order.
	retry []MPDU
	// buf backs the slice Build returns. Aggregates strictly alternate
	// (busy until the BA settles), so the previous aggregate is fully
	// processed before the next Build reuses the array.
	buf []MPDU
	// stats
	Sent      int // MPDUs first-transmitted
	Resent    int // MPDU retransmissions
	Acked     int
	Dropped   int // exceeded retry limit
	Abandoned int // retries discarded by DropRetries (handoff stop)
}

// NewAggregator returns an empty engine.
func NewAggregator() *Aggregator { return &Aggregator{} }

// Pull supplies the next fresh packet to aggregate, or false when the
// source is empty (or the caller wants to cap the aggregate).
type Pull func() (packet.Packet, bool)

// Build assembles the next aggregate at rate r: pending retransmissions
// first (oldest first, as the BA window demands), then fresh packets from
// pull, up to the TXOP airtime/window limits for typical payloads. It
// returns nil when there is nothing to send.
func (a *Aggregator) Build(r phy.Rate, pull Pull) []MPDU {
	limit := phy.MaxMPDUsForAirtime(r, 1500)
	out := a.buf[:0]

	// Retries stay inside one BA window (64 seqs from the first): take
	// them all first — they are oldest.
	n := len(a.retry)
	if n > limit {
		n = limit
	}
	out = append(out, a.retry[:n]...)
	a.retry = append(a.retry[:0], a.retry[n:]...)

	// Window constraint: every MPDU in the aggregate must fall within
	// [first.Seq, first.Seq+64).
	for len(out) < limit {
		if len(out) > 0 && seqDist(out[0].Seq, a.nextSeq) >= 64 {
			break
		}
		pkt, ok := pull()
		if !ok {
			break
		}
		out = append(out, MPDU{Seq: a.nextSeq, Pkt: pkt})
		a.nextSeq = NextSeq(a.nextSeq)
		a.Sent++
	}
	for i := range out {
		if out[i].Retries > 0 {
			a.Resent++
		}
	}
	a.buf = out
	return out
}

// BAResult is the outcome of processing acknowledgement state for one
// transmitted aggregate. DroppedCount counts the MPDUs that exhausted
// the retry limit, out of LostCount.
type BAResult struct {
	AckedCount   int
	LostCount    int
	DroppedCount int
}

// ProcessBA consumes the block ACK for an aggregate previously returned
// by Build. Unacked MPDUs re-enter the retry queue unless they exhausted
// the retry limit. The caller passes the same slice Build returned.
func (a *Aggregator) ProcessBA(sent []MPDU, ba BAInfo) BAResult {
	var res BAResult
	for _, m := range sent {
		if ba.Acked(m.Seq) {
			res.AckedCount++
			a.Acked++
			continue
		}
		res.LostCount++
		m.Retries++
		if m.Retries >= RetryLimit {
			res.DroppedCount++
			a.Dropped++
			continue
		}
		a.retry = append(a.retry, m)
	}
	return res
}

// Timeout handles a missing block ACK (the whole response was lost): all
// MPDUs count as unacknowledged. This is exactly the waste that WGTT's
// BA forwarding eliminates when some other AP overheard the ACK.
func (a *Aggregator) Timeout(sent []MPDU) BAResult {
	return a.ProcessBA(sent, BAInfo{StartSeq: sent[0].Seq, Bitmap: 0})
}

// PendingRetries reports how many MPDUs await retransmission.
func (a *Aggregator) PendingRetries() int { return len(a.retry) }

// DropRetries abandons all pending retransmissions (used when a stop(c)
// freezes this AP's transmit path — the next AP owns those indexes now)
// and returns the abandoned packets.
func (a *Aggregator) DropRetries() []packet.Packet {
	out := make([]packet.Packet, 0, len(a.retry))
	for _, m := range a.retry {
		out = append(out, m.Pkt)
	}
	a.Abandoned += len(a.retry)
	a.retry = a.retry[:0]
	return out
}

// BuildBitmap is the receiver side: given the aggregate's MPDUs and which
// decoded, produce the compressed BA payload.
func BuildBitmap(mpdus []MPDU, ok []bool) BAInfo {
	if len(mpdus) == 0 {
		return BAInfo{}
	}
	ba := BAInfo{StartSeq: mpdus[0].Seq}
	for i := range mpdus {
		if i < len(ok) && ok[i] {
			d := seqDist(ba.StartSeq, mpdus[i].Seq)
			if d >= 0 && d < 64 {
				ba.Bitmap |= 1 << uint(d)
			}
		}
	}
	return ba
}
