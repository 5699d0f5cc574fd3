package mac

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"wgtt/internal/csi"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// refDeliverAll is the one-phase delivery that two-phase deliverAll
// replaced: each candidate is evaluated and committed before the next is
// evaluated, so a candidate sees every effect of the OnReceive calls
// before it. It fills every audible candidate in full (a −Inf floor) and
// takes every one through ESNR, so it also checks that the medium's
// floored fill stops only receptions that are not heard. It counts
// receptions by outcome as the medium does, a reception below the floor
// being one whose every subcarrier reads under fillFloorDB.
func refDeliverAll(m *Medium, t *Transmission) {
	var snrs [rf.NumSubcarriers]float64
	visit := func(n *Node) {
		m.stats.Evaluated++
		sense := m.channel.SenseSNRdB(t.Tx, n)
		if m.hasHeadroom && sense+m.headroomDB < detectThresholdDB {
			m.stats.Prefiltered++
			return
		}
		audible, filled := m.channel.SubcarrierSNRs(t.Tx, n, sense, math.Inf(-1), snrs[:])
		if !audible {
			return
		}
		if !filled {
			panic("a −Inf floor left an audible reception unfilled")
		}
		if slices.Max(snrs[:]) < fillFloorDB {
			m.stats.BelowFloor++
		}
		if m.interference != nil {
			iLin, hit := m.interference(n, t)
			if hit {
				m.interferenceHits++
			}
			if iLin > 0 {
				pen := 10 * math.Log10(1+iLin)
				for i := range snrs {
					snrs[i] -= pen
				}
			}
		}
		esnr := csi.EffectiveSNRdB(snrs[:], t.Rate.Modulation)
		if esnr < detectThresholdDB {
			return
		}
		m.stats.Heard++
		det := Detection{ESNRdB: esnr, SNRsDB: snrs}
		if m.collided(t, n, esnr) {
			det.Collided = true
			if len(t.MPDUs) > 0 {
				det.OK = m.okBuf(len(t.MPDUs))
				m.stats.MPDULosses += len(t.MPDUs)
			}
			m.stats.Collisions++
			n.Recv.OnReceive(t, det)
			return
		}
		if t.Type == FrameData {
			det.OK = m.okBuf(len(t.MPDUs))
			for i := range t.MPDUs {
				per := phy.PER(t.Rate, esnr, t.MPDUs[i].Pkt.WireLen())
				ok := m.rng.Float64() >= per
				det.OK[i] = ok
				if !ok {
					m.stats.MPDULosses++
				}
			}
		} else if m.rng.Float64() < phy.PER(t.Rate, esnr, frameBytes(t)) {
			return
		}
		n.Recv.OnReceive(t, det)
	}
	if m.index == nil {
		for _, n := range m.nodes {
			if n != t.Tx && n.Recv != nil {
				visit(n)
			}
		}
		return
	}
	bitmap := make([]uint64, (len(m.bySeq)+63)/64)
	m.index.MarkAudible(t.Tx, bitmap)
	for w, word := range bitmap {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			// Looked up at visit time: an earlier OnReceive may have
			// unregistered the node.
			if n := m.bySeq[i]; n != nil && n != t.Tx && n.Recv != nil {
				visit(n)
			}
		}
	}
}

// markAll is an audibility index that marks every registered node.
type markAll struct{ nodes []*Node }

func (x *markAll) Register(n *Node) { x.nodes = append(x.nodes, n) }
func (x *markAll) Unregister(n *Node) {
	x.nodes = slices.DeleteFunc(x.nodes, func(y *Node) bool { return y == n })
}
func (x *markAll) MarkAudible(_ *Node, bitmap []uint64) {
	for _, n := range x.nodes {
		bitmap[n.seq>>6] |= 1 << (n.seq & 63)
	}
}

// shapedChannel is fakeChannel with a per-subcarrier ripple, so a
// Detection's CSI differs between subcarriers. It stops unfilled when
// every rippled value is below the floor. It only reads its map while
// deliveries are evaluated, so concurrent evaluation is safe.
type shapedChannel struct{ *fakeChannel }

func (c shapedChannel) SubcarrierSNRs(tx, rx *Node, sense, floor float64, dst []float64) (bool, bool) {
	if audible, _ := c.fakeChannel.SubcarrierSNRs(tx, rx, sense, math.Inf(-1), dst); !audible {
		return false, false
	}
	for i := range dst {
		dst[i] += float64(i%7) - 3
	}
	return true, slices.Max(dst) >= floor
}

// deliveryWorld is one medium with a transmitter, an interferer and 40
// receivers, some out of range, some below detection, some marginal (so
// PER draws decide) and some exposed to the interferer (so collisions
// decide). Receiver 5's first reception unregisters receiver 20 (when
// victim is set), and every reception at receiver 7 sends a block ACK on
// the spot.
type deliveryWorld struct {
	c      *sim.Coordinator
	loop   *sim.Loop
	m      *Medium
	log    []string
	ref    bool
	victim *Node
}

// worldRx logs every delivery with its full Detection.
type worldRx struct {
	w    *deliveryWorld
	node *Node
	idx  int
}

func (r *worldRx) OnReceive(t *Transmission, det Detection) {
	w := r.w
	w.log = append(w.log, fmt.Sprintf("@%d %s<-%s type=%v coll=%v esnr=%x ok=%v snrs=%x",
		w.loop.Now(), r.node.Name, t.Tx.Name, t.Type, det.Collided,
		math.Float64bits(det.ESNRdB), det.OK, det.SNRsDB))
	switch r.idx {
	case 5:
		if w.victim != nil {
			w.m.Unregister(w.victim)
			w.victim = nil
		}
	case 7:
		w.transmit(&Transmission{Tx: r.node, Dst: t.Tx.Addr, Type: FrameBlockAck, Rate: phy.BasicRate})
	}
}

// transmit puts t on the air; the reference world delivers it with
// refDeliverAll instead of the medium's own delivery.
func (w *deliveryWorld) transmit(t *Transmission) {
	m := w.m
	m.Transmit(t)
	if !w.ref {
		return
	}
	m.loop.Cancel(t.deliverEv)
	t.deliverEv = m.loop.At(t.End, func() {
		t.deliverEv = nil
		t.Tx.transmitting = false
		refDeliverAll(m, t)
		m.prune()
	})
}

func newDeliveryWorld(ref, index, unregister bool) *deliveryWorld {
	w := &deliveryWorld{c: sim.NewCoordinator(0, false), ref: ref}
	w.loop = w.c.NewDomain("medium").Loop
	ch := newFakeChannel()
	w.m = NewMedium(w.loop, shapedChannel{ch}, sim.NewRNG(41))
	if index {
		w.m.SetAudibilityIndex(&markAll{})
	}
	src, jam := node("src", nil), node("jam", nil)
	w.m.Register(src)
	w.m.Register(jam)
	rs := make([]*Node, 40)
	for i := range rs {
		rx := &worldRx{w: w, idx: i}
		rs[i] = node(fmt.Sprintf("r%d", i), rx)
		rs[i].Tag = i
		rx.node = rs[i]
		w.m.Register(rs[i])
		switch {
		case i%10 == 9: // out of range of src
		case i%10 == 8:
			ch.set(src, rs[i], -20) // below detection
		case i%4 == 1:
			ch.set(src, rs[i], 9+float64(i%3)) // marginal at MCS4
		default:
			ch.set(src, rs[i], 24+float64(i))
		}
		if i%3 == 0 {
			ch.set(jam, rs[i], 18+float64(i%5)*4) // exposed to the interferer
		}
	}
	if unregister {
		w.victim = rs[20]
	}
	// A flat penalty from an imaginary remote domain on every fifth
	// receiver, and a reported overlap without energy on every seventh.
	w.m.SetInterference(func(rx *Node, _ *Transmission) (float64, bool) {
		switch {
		case rx.Tag%5 == 0:
			return 0.5, true
		case rx.Tag%7 == 0:
			return 0, true
		}
		return 0, false
	})
	w.loop.At(0, func() { w.transmit(dataTx(jam, packet0, 4, phy.Rates[0])) })
	w.loop.At(sim.Time(10*sim.Microsecond), func() { w.transmit(dataTx(src, packet0, 8, phy.Rates[4])) })
	w.loop.At(sim.Time(5*sim.Millisecond), func() {
		w.transmit(&Transmission{Tx: src, Dst: Broadcast, Type: FrameBeacon, Rate: phy.BasicRate})
	})
	w.loop.At(sim.Time(8*sim.Millisecond), func() { w.transmit(dataTx(src, packet0, 8, phy.Rates[4])) })
	return w
}

// packet0 is the destination of the worlds' data frames; no node owns
// it, so every receiver evaluates them as overheard traffic.
var packet0 = node("nobody", nil).Addr

// TestTwoPhaseDeliveryMatchesSequential rides the same world through
// two-phase delivery (evaluated concurrently at GOMAXPROCS 1, 2 and 8)
// and through refDeliverAll, with and without an audibility index, and
// requires identical deliveries, Detections, stats, interference hits
// and RNG position. The unregistering receiver needs the index: without
// one the reference's walk over m.nodes would see the node set shift
// under it.
func TestTwoPhaseDeliveryMatchesSequential(t *testing.T) {
	for _, index := range []bool{true, false} {
		ride := func(ref bool) *deliveryWorld {
			w := newDeliveryWorld(ref, index, index)
			w.c.Run(sim.Time(20 * sim.Millisecond))
			return w
		}
		want := ride(true)
		if len(want.log) < 60 {
			t.Fatalf("index=%v: only %d deliveries — world too quiet", index, len(want.log))
		}
		wantNext := want.m.rng.Float64()
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := ride(false)
			runtime.GOMAXPROCS(prev)
			label := fmt.Sprintf("index=%v GOMAXPROCS=%d", index, procs)
			if !slices.Equal(got.log, want.log) {
				for k := range min(len(got.log), len(want.log)) {
					if got.log[k] != want.log[k] {
						t.Fatalf("%s: delivery %d differs\n got: %s\nwant: %s", label, k, got.log[k], want.log[k])
					}
				}
				t.Fatalf("%s: %d deliveries, want %d", label, len(got.log), len(want.log))
			}
			if got.m.Stats() != want.m.Stats() {
				t.Errorf("%s: stats %+v, want %+v", label, got.m.Stats(), want.m.Stats())
			}
			if got.m.InterferenceHits() != want.m.InterferenceHits() {
				t.Errorf("%s: %d interference hits, want %d", label, got.m.InterferenceHits(), want.m.InterferenceHits())
			}
			if next := got.m.rng.Float64(); next != wantNext {
				t.Errorf("%s: RNG streams diverged (next draw %v, want %v)", label, next, wantNext)
			}
		}
		if st := want.m.Stats(); st.Collisions == 0 || want.m.InterferenceHits() == 0 {
			t.Errorf("index=%v: world exercises too little: %+v, %d hits", index, st, want.m.InterferenceHits())
		}
		if st := want.m.Stats(); st.BelowFloor == 0 || st.Heard == 0 {
			t.Errorf("index=%v: no reception stopped below the floor, or none heard: %+v", index, st)
		}
	}
}
