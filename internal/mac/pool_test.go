package mac

import (
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// countRx counts deliveries and the MPDUs decoded in them.
type countRx struct{ frames, decoded int }

func (c *countRx) OnReceive(_ *Transmission, det Detection) {
	c.frames++
	for _, ok := range det.OK {
		if ok {
			c.decoded++
		}
	}
}

// TestMediumCycleAllocatesNothing runs a station's whole transmit cycle —
// Contend, grant, a pooled aggregate on air, its delivery to a receiver
// and the prune that recycles it — and requires that once the medium's
// pools are warm a cycle allocates nothing: the grant record, its bound
// callback and the transmission's bound delivery are all reused.
func TestMediumCycleAllocatesNothing(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(5))
	rx := &countRx{}
	src, dst := node("src", nil), node("dst", rx)
	m.Register(src)
	m.Register(dst)
	ch.set(src, dst, 30)
	mpdus := dataTx(src, dst.Addr, 4, phy.Rates[4]).MPDUs
	send := func() {
		t := m.NewTransmission()
		t.Tx, t.Dst, t.Type, t.Rate, t.MPDUs = src, dst.Addr, FrameData, phy.Rates[4], mpdus
		m.Transmit(t)
	}
	cycle := func() {
		m.Contend(src, 0, send)
		loop.Run(loop.Now().Add(5 * sim.Millisecond))
	}
	cycle() // warm-up: the first grant record and transmission
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 && !sim.OwnerChecked {
		t.Errorf("a contend-transmit-deliver cycle allocates %v objects, want 0", allocs)
	}
	if rx.frames != 52 || rx.decoded != 4*52 {
		t.Fatalf("receiver saw %d frames, %d MPDUs decoded; want 52 and %d", rx.frames, rx.decoded, 4*52)
	}
	if len(m.grantFree) != 1 {
		t.Errorf("grant pool holds %d records after serial contentions, want 1", len(m.grantFree))
	}
}

// TestGrantOfUnregisteredNodeIsDropped: a grant whose node unregisters
// before it fires runs no callback, and its record goes back to the pool
// for the next contention.
func TestGrantOfUnregisteredNodeIsDropped(t *testing.T) {
	loop := sim.NewLoop()
	m := NewMedium(loop, newFakeChannel(), sim.NewRNG(1))
	n := node("n", nil)
	m.Register(n)
	ran := 0
	cb := func() { ran++ }
	m.Contend(n, 0, cb)
	m.Unregister(n)
	loop.Run(sim.Time(sim.Millisecond))
	if ran != 0 {
		t.Fatalf("grant of an unregistered node ran its callback %d times", ran)
	}
	if len(m.grantFree) != 1 {
		t.Fatalf("dropped grant left %d records in the pool, want 1", len(m.grantFree))
	}
	g := m.grantFree[0]
	if g.n != nil || g.cb != nil {
		t.Error("pooled grant record still holds its node or callback")
	}
	m.Register(n)
	m.Contend(n, 0, cb)
	if len(m.grantFree) != 0 {
		t.Fatal("second contention did not take the pooled record")
	}
	loop.Run(sim.Time(2 * sim.Millisecond))
	if ran != 1 {
		t.Fatalf("re-registered node's grant ran %d times, want 1", ran)
	}
	if len(m.grantFree) != 1 || m.grantFree[0] != g {
		t.Error("the dropped grant's record was not the one reused")
	}
}

// TestGrantSchedule pins the grant timing and RNG order the pooled
// records must keep: concurrent contentions each fire their own callback
// once, a callback that contends again from inside its grant is granted
// DIFS plus a fresh backoff later, and a grant that finds the channel
// busy re-defers, on the same record, to the busy end plus DIFS and a
// 0–3 slot re-draw. The expected times come from a second stream with
// the medium's seed.
func TestGrantSchedule(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(9))
	ref := sim.NewRNG(9)
	a, b, jam := node("a", nil), node("bb", nil), node("jam", nil)
	m.Register(a)
	m.Register(b)
	m.Register(jam)
	ch.set(jam, a, 30) // a hears jam's beacon; b does not

	// Two contentions in flight at once, then three chained ones from
	// inside a's grants.
	var gotA, gotB []sim.Time
	left := 3
	var cbA func()
	cbA = func() {
		gotA = append(gotA, loop.Now())
		if left--; left > 0 {
			m.Contend(a, 0, cbA)
		}
	}
	m.Contend(a, 0, cbA)
	m.Contend(b, 0, func() { gotB = append(gotB, loop.Now()) })
	slotsA, slotsB := ref.Intn(16), ref.Intn(16)
	grant := func(from sim.Time, slots int) sim.Time {
		return from.Add(phy.DIFS + sim.Duration(slots)*phy.Slot)
	}
	wantA := []sim.Time{grant(0, slotsA)}
	wantB := []sim.Time{grant(0, slotsB)}
	loop.Run(sim.Time(sim.Millisecond))
	for len(wantA) < 3 {
		wantA = append(wantA, grant(wantA[len(wantA)-1], ref.Intn(16)))
	}
	if !equalTimes(gotA, wantA) || !equalTimes(gotB, wantB) {
		t.Fatalf("grants at a=%v b=%v, want a=%v b=%v", gotA, gotB, wantA, wantB)
	}
	if len(m.grantFree) != 2 {
		t.Fatalf("grant pool holds %d records after two concurrent contentions, want 2", len(m.grantFree))
	}

	// A beacon that starts after a's contention and is still on air at
	// its grant: the grant re-defers once.
	start := loop.Now()
	var gotBusy []sim.Time
	m.Contend(a, 0, func() { gotBusy = append(gotBusy, loop.Now()) })
	first := grant(start, ref.Intn(16))
	beacon := &Transmission{Tx: jam, Dst: Broadcast, Type: FrameBeacon, Rate: phy.BasicRate}
	loop.At(first.Add(-sim.Microsecond), func() { m.Transmit(beacon) })
	loop.Run(start.Add(5 * sim.Millisecond))
	want := grant(beacon.End, ref.Intn(4))
	if len(gotBusy) != 1 || gotBusy[0] != want {
		t.Fatalf("busy-channel grant fired at %v, want once at %v", gotBusy, want)
	}
	if len(m.grantFree) != 2 {
		t.Errorf("re-deferral took a new record: pool holds %d, want 2", len(m.grantFree))
	}
}

func equalTimes(a, b []sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLiteralTransmissionDelivers: a Transmission built as a literal
// binds its delivery at Transmit, is delivered like a pooled one, and
// never enters the medium's pool.
func TestLiteralTransmissionDelivers(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(2))
	rx := &collector{}
	src, dst := node("src", nil), node("dst", rx)
	m.Register(src)
	m.Register(dst)
	ch.set(src, dst, 30)
	lit := dataTx(src, dst.Addr, 3, phy.Rates[2])
	m.Transmit(lit)
	if lit.deliver == nil {
		t.Fatal("literal transmission has no bound delivery after Transmit")
	}
	loop.Run(sim.Time(5 * sim.Millisecond))
	// A second frame after the first's NAV prunes the literal.
	m.Transmit(dataTx(src, dst.Addr, 1, phy.Rates[2]))
	loop.Run(sim.Time(10 * sim.Millisecond))
	if len(rx.frames) != 2 || rx.frames[0] != lit {
		t.Fatalf("receiver got %d frames (first %p), want the literal first of 2", len(rx.frames), rx.frames[0])
	}
	for k, ok := range rx.dets[0].OK {
		if !ok {
			t.Errorf("literal MPDU %d lost at 30 dB", k)
		}
	}
	if len(m.txFree) != 0 {
		t.Errorf("literal transmissions entered the pool (%d pooled)", len(m.txFree))
	}
}

// TestCommitPERPerLength holds commit's PER reuse to the per-MPDU
// model: an aggregate whose subframe lengths change mid-way, at an SNR
// where the draws decide, decodes exactly the MPDUs a per-MPDU
// evaluation of phy.PER with the same stream decodes.
func TestCommitPERPerLength(t *testing.T) {
	const seed = 17
	lengths := []int{1400, 1400, 1400, 100, 100, 1400, 600, 600, 600, 600, 1400, 100}
	decided := false
	for _, snr := range []float64{13, 14, 15, 16} {
		loop := sim.NewLoop()
		ch := newFakeChannel()
		m := NewMedium(loop, ch, sim.NewRNG(seed))
		rx := &collector{}
		src, dst := node("src", nil), node("dst", rx)
		m.Register(src)
		m.Register(dst)
		ch.set(src, dst, snr)
		tx := &Transmission{Tx: src, Dst: dst.Addr, Type: FrameData, Rate: phy.Rates[4]}
		for i, l := range lengths {
			tx.MPDUs = append(tx.MPDUs, MPDU{Seq: uint16(i), Pkt: packet.Packet{Proto: packet.ProtoUDP, PayloadLen: uint16(l)}})
		}
		m.Transmit(tx)
		loop.Run(sim.Time(5 * sim.Millisecond))
		if len(rx.dets) != 1 {
			t.Fatalf("snr %v: %d deliveries, want 1", snr, len(rx.dets))
		}
		det := rx.dets[0]
		ref := sim.NewRNG(seed)
		decoded := 0
		for k := range tx.MPDUs {
			per := phy.PER(tx.Rate, det.ESNRdB, tx.MPDUs[k].Pkt.WireLen())
			if want := ref.Float64() >= per; det.OK[k] != want {
				t.Fatalf("snr %v: MPDU %d decoded=%v, per-MPDU model says %v", snr, k, det.OK[k], want)
			}
			if det.OK[k] {
				decoded++
			}
		}
		decided = decided || decoded > 0 && decoded < len(lengths)
		if m.rng.Float64() != ref.Float64() {
			t.Errorf("snr %v: medium stream drew a different number of values", snr)
		}
	}
	if !decided {
		t.Error("no SNR left the draws to decide between decoded and lost MPDUs")
	}
}
