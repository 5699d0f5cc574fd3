package queue

import (
	"math/rand"
	"testing"

	"wgtt/internal/packet"
)

const indexMask = packet.IndexMod - 1

// eagerCyclic is the reference model for Cyclic: the same cursor rules
// over slots that exist from the start and hold packets by value, with
// every walk visiting every slot on its way.
type eagerCyclic struct {
	slots      [packet.IndexMod]packet.Packet
	used       [packet.IndexMod]bool
	head, tail uint16
	count      int
	empty      bool
	stats      CyclicStats
}

func newEagerCyclic() *eagerCyclic { return &eagerCyclic{empty: true} }

func (c *eagerCyclic) insert(p packet.Packet) {
	idx := p.Index & indexMask
	if !c.empty {
		if d := IndexDist(c.head, idx); d < 0 {
			if d > -recentPastWindow {
				c.stats.StaleDrops++
				return
			}
			c.clear()
		}
	}
	if !c.used[idx] {
		c.count++
	}
	c.used[idx], c.slots[idx] = true, p
	c.stats.Inserts++
	if c.empty {
		c.head, c.tail = idx, (idx+1)&indexMask
		c.empty = false
		return
	}
	if IndexDist(c.tail, idx) >= 0 {
		c.tail = (idx + 1) & indexMask
	}
	if IndexDist(c.head, c.tail) < 0 || IndexDist(c.head, c.tail) > maxOccupancy {
		c.setHead((c.tail - maxOccupancy) & indexMask)
	}
}

func (c *eagerCyclic) setHead(k uint16) {
	k &= indexMask
	if c.empty {
		c.head, c.tail = k, k
		return
	}
	if d := IndexDist(c.head, k); d < 0 {
		if d > -recentPastWindow {
			return
		}
		c.clear()
		c.head, c.tail = k, k
		c.empty = false
		return
	}
	for c.head != k && IndexDist(c.head, k) > 0 {
		if c.used[c.head] {
			c.used[c.head] = false
			c.count--
			c.stats.Flushed++
		}
		c.head = (c.head + 1) & indexMask
	}
	c.head = k
	if IndexDist(c.tail, k) > 0 {
		c.tail = k
	}
}

func (c *eagerCyclic) pop() (packet.Packet, bool) {
	if c.count == 0 {
		return packet.Packet{}, false
	}
	for ; c.head != c.tail; c.head = (c.head + 1) & indexMask {
		if c.used[c.head] {
			p := c.slots[c.head]
			c.used[c.head] = false
			c.count--
			c.head = (c.head + 1) & indexMask
			return p, true
		}
	}
	return packet.Packet{}, false
}

func (c *eagerCyclic) peek() (packet.Packet, bool) {
	if c.count == 0 {
		return packet.Packet{}, false
	}
	for h := c.head; h != c.tail; h = (h + 1) & indexMask {
		if c.used[h] {
			return c.slots[h], true
		}
	}
	return packet.Packet{}, false
}

func (c *eagerCyclic) clear() {
	c.used = [packet.IndexMod]bool{}
	c.count = 0
	c.empty = true
	c.head, c.tail = 0, 0
}

// TestCyclicMatchesEagerModel drives Cyclic and the reference model with
// the same random operations — in-order, stale, overwriting and wrapping
// inserts; forward, backward and wrap-ambiguous SetHead; Pop, Peek, Len
// and Clear — and requires every result, the cursors and the Stats to
// agree after each one. Some buffers take SetHead, Pop and Clear before
// their first packet, as a replicated buffer does.
func TestCyclicMatchesEagerModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, ref := NewCyclic(), newEagerCyclic()
		cursor := uint16(rng.Intn(packet.IndexMod)) // the controller's next index
		seq := uint32(0)
		for op := 0; op < 3000; op++ {
			var what string
			switch r := rng.Intn(100); {
			case r < 40:
				what = "insert in order"
				seq++
				p := pkt(cursor)
				p.Seq = seq
				cursor = (cursor + 1) & indexMask
				c.Insert(p)
				ref.insert(p)
			case r < 47:
				what = "insert stale or overwrite"
				seq++
				p := pkt((cursor - uint16(1+rng.Intn(300))) & indexMask)
				p.Seq = seq
				c.Insert(p)
				ref.insert(p)
			case r < 50:
				what = "insert past a wrap"
				cursor = (cursor + uint16(packet.IndexMod/2+rng.Intn(packet.IndexMod/2))) & indexMask
				seq++
				p := pkt(cursor)
				p.Seq = seq
				c.Insert(p)
				ref.insert(p)
			case r < 58:
				what = "SetHead forward"
				k := (c.Head() + uint16(rng.Intn(400))) & indexMask
				c.SetHead(k)
				ref.setHead(k)
			case r < 63:
				what = "SetHead backward"
				k := (c.Head() - uint16(1+rng.Intn(recentPastWindow-1))) & indexMask
				c.SetHead(k)
				ref.setHead(k)
			case r < 66:
				what = "SetHead wrap-ambiguous"
				k := (c.Head() - uint16(recentPastWindow+rng.Intn(packet.IndexMod/2-recentPastWindow))) & indexMask
				c.SetHead(k)
				ref.setHead(k)
			case r < 84:
				what = "Pop"
				p, ok := c.Pop()
				wp, wok := ref.pop()
				if ok != wok || p != wp {
					t.Fatalf("seed %d op %d Pop = %+v,%v; model %+v,%v", seed, op, p, ok, wp, wok)
				}
			case r < 94:
				what = "Peek"
				p, ok := c.Peek()
				wp, wok := ref.peek()
				if ok != wok || p != wp {
					t.Fatalf("seed %d op %d Peek = %+v,%v; model %+v,%v", seed, op, p, ok, wp, wok)
				}
			case r < 96:
				what = "Clear"
				c.Clear()
				ref.clear()
			default:
				what = "fresh buffer"
				c, ref = NewCyclic(), newEagerCyclic()
			}
			if c.Len() != ref.count || c.Head() != ref.head || c.tail != ref.tail ||
				c.empty != ref.empty || c.Stats != ref.stats {
				t.Fatalf("seed %d op %d (%s): len %d head %d tail %d empty %v stats %+v; model len %d head %d tail %d empty %v stats %+v",
					seed, op, what, c.Len(), c.Head(), c.tail, c.empty, c.Stats,
					ref.count, ref.head, ref.tail, ref.empty, ref.stats)
			}
		}
	}
}

// TestCyclicUnusedAllocatesNothing holds the replicated buffer's cost: a
// buffer that never receives a packet allocates nothing, whatever cursor
// moves and reads it sees, and never takes its slots.
func TestCyclicUnusedAllocatesNothing(t *testing.T) {
	c := NewCyclic()
	k := uint16(0)
	allocs := testing.AllocsPerRun(100, func() {
		k = (k + 37) & indexMask
		c.SetHead(k)
		c.SetHead(k - 3)                 // just behind: ignored
		c.SetHead(k - packet.IndexMod/2) // wrap-ambiguous: flush
		if _, ok := c.Pop(); ok {
			t.Fatal("Pop on an unused buffer succeeded")
		}
		if _, ok := c.Peek(); ok {
			t.Fatal("Peek on an unused buffer succeeded")
		}
		_ = c.Head()
		if c.Len() != 0 {
			t.Fatal("unused buffer reports packets")
		}
		c.Clear()
	})
	if allocs != 0 {
		t.Errorf("unused buffer allocates %v objects per round, want 0", allocs)
	}
	if c.slots != nil {
		t.Error("unused buffer took its slots")
	}
}

// TestCyclicCellsComeInSlabs holds a used buffer's allocation rate: at a
// steady occupancy, cycling packets through it allocates nothing, and
// growing its occupancy takes one slab of packet cells per cellSlab
// packets, not a cell per packet.
func TestCyclicCellsComeInSlabs(t *testing.T) {
	c := NewCyclic()
	idx := uint16(0)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			c.Insert(pkt(idx))
			idx = (idx + 1) & indexMask
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := c.Pop(); !ok {
				t.Fatal("Pop found no packet")
			}
		}
	}
	insert(100) // slots, two slabs and the free list's capacity
	if allocs := testing.AllocsPerRun(100, func() {
		insert(cellSlab)
		pop(cellSlab)
	}); allocs != 0 {
		t.Errorf("cycling %d packets at steady occupancy allocates %v objects, want 0", cellSlab, allocs)
	}
	// Growth: each run raises the occupancy by cellSlab packets, the
	// free list's capacity included, so at most one slab and one
	// free-list growth per run.
	if allocs := testing.AllocsPerRun(8, func() { insert(cellSlab) }); allocs > 2 {
		t.Errorf("growing by %d packets allocates %v objects, want at most a slab and a free-list growth", cellSlab, allocs)
	}
}
