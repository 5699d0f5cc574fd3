// Package queue implements the AP-side packet buffers of Fig. 7: the
// per-client cyclic queue addressed by WGTT's 12-bit index numbers, and
// the small non-recallable hardware NIC FIFO whose drain the switching
// protocol tolerates (§3.1.2).
package queue

import (
	"wgtt/internal/packet"
)

// IndexDist returns the forward modular distance from index a to index b
// in the 12-bit index space, as a signed value in [−2048, 2047]. Positive
// means b is ahead of a.
func IndexDist(a, b uint16) int {
	d := int((b - a) & (packet.IndexMod - 1))
	if d >= packet.IndexMod/2 {
		d -= packet.IndexMod
	}
	return d
}

// Cyclic is one client's downlink buffer at one AP. The controller stamps
// every downlink packet with an index that increments mod 4096; every
// candidate AP inserts the packet at that index. Only the serving AP pops
// and transmits; when a switch start(c,k) arrives, the new AP simply moves
// its head to k — the backlogged packets are already in its buffer, which
// is what makes WGTT's handoff nearly instantaneous.
//
// Every AP of a segment holds a buffer per associated client, but the
// controller fans a client's downlink only to the few candidate APs near
// it, so most buffers never see a packet. The 4,096 index slots (32 KB)
// are therefore allocated at the first Insert; until then a buffer is its
// cursors and counters alone.
type Cyclic struct {
	slots *[packet.IndexMod]*packet.Packet // nil until the first Insert
	head  uint16                           // next index to transmit
	tail  uint16                           // one past the newest inserted index
	count int                              // occupied slots
	empty bool                             // true until first insert

	// Stats count buffer events over the queue's lifetime. Plain ints
	// kept inline (no telemetry handles) so the package stays leaf;
	// the AP layer reads deltas around protocol steps.
	Stats CyclicStats

	// free recycles slot cells: a buffer that cycles at steady state
	// (insert, pop, insert, ...) allocates a cell only up to its
	// high-water occupancy instead of once per insert.
	free []*packet.Packet
}

// put stores p in a recycled (or fresh) cell.
func (c *Cyclic) put(p packet.Packet) *packet.Packet {
	if n := len(c.free); n > 0 {
		cell := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*cell = p
		return cell
	}
	cp := p
	return &cp
}

// release returns a vacated cell to the free list.
func (c *Cyclic) release(cell *packet.Packet) {
	c.free = append(c.free, cell)
}

// CyclicStats are lifetime event counts for one Cyclic buffer.
type CyclicStats struct {
	// Inserts counts accepted Insert calls (including overwrites).
	Inserts int
	// StaleDrops counts inserts discarded because the head had already
	// passed their index.
	StaleDrops int
	// Flushed counts buffered packets discarded by SetHead moving the
	// head forward — the packets a start(c,k) declares already served.
	Flushed int
}

// NewCyclic returns an empty buffer.
func NewCyclic() *Cyclic {
	return &Cyclic{empty: true}
}

// Insert stores p at its index, overwriting any stale occupant (the index
// space is sized so an overwrite can only hit a packet that left the
// window long ago). Inserts may arrive out of order across switches.
func (c *Cyclic) Insert(p packet.Packet) {
	idx := p.Index & (packet.IndexMod - 1)
	if !c.empty {
		if d := IndexDist(c.head, idx); d < 0 {
			if d > -recentPastWindow {
				// Stale: an index the head already passed (e.g.
				// delivered by the previous AP before a switch).
				// Buffering it again would resend old data, so
				// drop it.
				c.Stats.StaleDrops++
				return
			}
			// "Behind" only by modular ambiguity: this buffer went
			// stale (no fan-out reached it for over half the index
			// space) while the controller's cursor marched on and
			// wrapped. Everything buffered predates idx — flush and
			// restart here, or a frozen head silently drops the
			// live stream forever.
			c.Clear()
		}
	}
	if c.slots == nil {
		c.slots = new([packet.IndexMod]*packet.Packet)
	}
	if old := c.slots[idx]; old == nil {
		c.count++
	} else {
		c.release(old)
	}
	c.Stats.Inserts++
	c.slots[idx] = c.put(p)
	if c.empty {
		c.head, c.tail = idx, (idx+1)&(packet.IndexMod-1)
		c.empty = false
		return
	}
	if IndexDist(c.tail, idx) >= 0 {
		c.tail = (idx + 1) & (packet.IndexMod - 1)
	}
	// Bound occupancy to half the index space: a buffer that nobody pops
	// (an AP that never becomes the serving AP) must overwrite its
	// oldest entries, like the real driver ring, or modular comparisons
	// against a frozen head become ambiguous once indexes wrap.
	if IndexDist(c.head, c.tail) < 0 || IndexDist(c.head, c.tail) > maxOccupancy {
		c.SetHead((c.tail - maxOccupancy) & (packet.IndexMod - 1))
	}
}

// maxOccupancy is the largest head→tail span the buffer retains. A
// quarter of the index space keeps all live distances far from the
// modular comparison's ±half-space ambiguity boundary.
const maxOccupancy = packet.IndexMod / 4

// recentPastWindow bounds how far behind the head a SetHead target can be
// and still be read as "already served" rather than as a stale buffer
// meeting a far-future index. Retransmitted starts lag by at most a few
// aggregates (≤ the 64-frame BA window each).
const recentPastWindow = 256

// SetHead repositions the transmit cursor to index k, discarding every
// buffered packet strictly before k. This implements both the start(c,k)
// handoff and the implicit discard of packets another AP already
// delivered.
func (c *Cyclic) SetHead(k uint16) {
	k &= packet.IndexMod - 1
	if c.empty {
		c.head, c.tail = k, k
		return
	}
	if d := IndexDist(c.head, k); d < 0 {
		if d > -recentPastWindow {
			// Genuinely just past k (e.g. a retransmitted
			// start(c,k) after we began serving): moving the head
			// backward would resend delivered data.
			return
		}
		// k is "behind" only by modular ambiguity: this buffer went
		// stale (no fan-out reached it for over half the index
		// space) while the controller's index marched on. Its
		// entire content predates k — flush it.
		c.Clear()
		c.head, c.tail = k, k
		c.empty = false
		return
	}
	// Drop slots in [head, k). An empty buffer holds none to drop (and
	// may have no slots yet).
	for c.count > 0 && c.head != k {
		if IndexDist(c.head, k) <= 0 {
			break
		}
		if cell := c.slots[c.head]; cell != nil {
			c.release(cell)
			c.slots[c.head] = nil
			c.count--
			c.Stats.Flushed++
		}
		c.head = (c.head + 1) & (packet.IndexMod - 1)
	}
	c.head = k
	if IndexDist(c.tail, k) > 0 {
		c.tail = k
	}
}

// Pop removes and returns the packet at the head cursor, advancing past
// any gaps (indexes the controller never sent to this AP). It returns
// false when no packet at or ahead of the head remains.
func (c *Cyclic) Pop() (packet.Packet, bool) {
	if c.count == 0 {
		return packet.Packet{}, false
	}
	for c.head != c.tail {
		if cell := c.slots[c.head]; cell != nil {
			p := *cell
			c.release(cell)
			c.slots[c.head] = nil
			c.count--
			c.head = (c.head + 1) & (packet.IndexMod - 1)
			return p, true
		}
		c.head = (c.head + 1) & (packet.IndexMod - 1)
	}
	return packet.Packet{}, false
}

// Peek returns the packet Pop would return, without removing it.
func (c *Cyclic) Peek() (packet.Packet, bool) {
	if c.count == 0 {
		return packet.Packet{}, false
	}
	h := c.head
	for h != c.tail {
		if p := c.slots[h]; p != nil {
			return *p, true
		}
		h = (h + 1) & (packet.IndexMod - 1)
	}
	return packet.Packet{}, false
}

// Head returns the index of the first unsent packet — the k that AP1
// reports in start(c,k) when it receives stop(c).
func (c *Cyclic) Head() uint16 { return c.head }

// Len returns the number of buffered packets at or ahead of the head.
func (c *Cyclic) Len() int { return c.count }

// Clear empties the buffer (client de-association). The slots, once
// allocated, are kept for the packets to come.
func (c *Cyclic) Clear() {
	if c.count > 0 {
		for i, cell := range c.slots {
			if cell != nil {
				c.release(cell)
				c.slots[i] = nil
			}
		}
	}
	c.count = 0
	c.empty = true
	c.head, c.tail = 0, 0
}
