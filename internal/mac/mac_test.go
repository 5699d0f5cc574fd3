package mac

import (
	"testing"
	"testing/quick"

	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// fakeChannel wires up fixed pairwise SNRs.
type fakeChannel struct {
	snr map[[2]*Node]float64
}

func newFakeChannel() *fakeChannel {
	return &fakeChannel{snr: map[[2]*Node]float64{}}
}

func (f *fakeChannel) set(a, b *Node, snr float64) {
	f.snr[[2]*Node{a, b}] = snr
	f.snr[[2]*Node{b, a}] = snr
}

// SubcarrierSNRs fills the pair's flat SNR, and stops unfilled when it
// is below the floor.
func (f *fakeChannel) SubcarrierSNRs(tx, rx *Node, _, floor float64, dst []float64) (bool, bool) {
	s, ok := f.snr[[2]*Node{tx, rx}]
	if !ok {
		return false, false
	}
	return true, rf.FillFlatSNRsDB(s, floor, dst)
}

func (f *fakeChannel) SenseSNRdB(tx, rx *Node) float64 {
	s, ok := f.snr[[2]*Node{tx, rx}]
	if !ok {
		return -100
	}
	return s
}

// collector records deliveries.
type collector struct {
	frames []*Transmission
	dets   []Detection
}

func (c *collector) OnReceive(t *Transmission, det Detection) {
	// det.OK is the medium's per-delivery scratch; copy it before the
	// next delivery overwrites it.
	det.OK = append([]bool(nil), det.OK...)
	c.frames = append(c.frames, t)
	c.dets = append(c.dets, det)
}

func node(name string, recv Receiver) *Node {
	return &Node{
		Name: name,
		Addr: packet.ClientMAC(len(name)),
		Pos:  func() rf.Position { return rf.Position{} },
		Recv: recv,
	}
}

func dataTx(tx *Node, dst packet.MAC, n int, rate phy.Rate) *Transmission {
	t := &Transmission{Tx: tx, Dst: dst, Type: FrameData, Rate: rate}
	for i := 0; i < n; i++ {
		t.MPDUs = append(t.MPDUs, MPDU{
			Seq: uint16(i),
			Pkt: packet.Packet{Proto: packet.ProtoUDP, PayloadLen: 1400},
		})
	}
	return t
}

func TestSeqDistAndNextSeq(t *testing.T) {
	if seqDist(0, 63) != 63 || seqDist(4095, 0) != 1 || seqDist(0, 4095) != -1 {
		t.Error("seqDist wrong")
	}
	if NextSeq(4095) != 0 || NextSeq(7) != 8 {
		t.Error("NextSeq wrong")
	}
}

func TestBAInfoAckedAndMerge(t *testing.T) {
	ba := BAInfo{StartSeq: 100, Bitmap: 0b1011}
	for seq, want := range map[uint16]bool{100: true, 101: true, 102: false, 103: true, 99: false, 164: false} {
		if ba.Acked(seq) != want {
			t.Errorf("Acked(%d) = %v, want %v", seq, ba.Acked(seq), want)
		}
	}
	// Merge same-window bitmaps (forwarded BA).
	other := BAInfo{StartSeq: 100, Bitmap: 0b0100}
	ba.Merge(other)
	if !ba.Acked(102) {
		t.Error("Merge did not fold in bit")
	}
	// Disjoint windows are ignored.
	ba.Merge(BAInfo{StartSeq: 200, Bitmap: ^uint64(0)})
	if ba.Acked(105) {
		t.Error("disjoint Merge leaked bits")
	}
}

func TestBuildBitmapRoundTrip(t *testing.T) {
	mpdus := []MPDU{{Seq: 4094}, {Seq: 4095}, {Seq: 0}, {Seq: 1}}
	ok := []bool{true, false, true, true}
	ba := BuildBitmap(mpdus, ok)
	for i, m := range mpdus {
		if ba.Acked(m.Seq) != ok[i] {
			t.Errorf("seq %d acked=%v, want %v", m.Seq, ba.Acked(m.Seq), ok[i])
		}
	}
	if (BAInfo{}) != BuildBitmap(nil, nil) {
		t.Error("empty bitmap not zero")
	}
}

func TestTransmissionAirtime(t *testing.T) {
	tx := dataTx(node("a", nil), Broadcast, 10, phy.Rates[7])
	at := tx.Airtime()
	// 10 × 1470-ish bytes at 72.2 Mb/s ≈ 1.6 ms + preamble.
	if at < sim.Duration(1*sim.Millisecond) || at > sim.Duration(3*sim.Millisecond) {
		t.Errorf("aggregate airtime = %v", at)
	}
	ba := &Transmission{Type: FrameBlockAck}
	if ba.Airtime() != phy.BlockAckAirtime {
		t.Error("BA airtime wrong")
	}
	b := &Transmission{Type: FrameBeacon}
	if b.Airtime() <= 0 {
		t.Error("beacon airtime wrong")
	}
	m := &Transmission{Type: FrameMgmt}
	if m.Airtime() <= 0 {
		t.Error("mgmt airtime wrong")
	}
	empty := &Transmission{Type: FrameData}
	if empty.Airtime() != 0 {
		t.Error("empty data airtime nonzero")
	}
}

func TestMediumDeliversCleanFrames(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(31))
	rx := &collector{}
	a := node("a", nil)
	b := node("b", rx)
	ch.set(a, b, 35) // pristine link
	m.Register(a)
	m.Register(b)

	tx := dataTx(a, b.Addr, 16, phy.Rates[7])
	m.Transmit(tx)
	loop.Run(sim.Time(20 * sim.Millisecond))

	if len(rx.frames) != 1 {
		t.Fatalf("delivered %d frames", len(rx.frames))
	}
	det := rx.dets[0]
	okCount := 0
	for _, ok := range det.OK {
		if ok {
			okCount++
		}
	}
	if okCount != 16 {
		t.Errorf("decoded %d/16 MPDUs at 35 dB", okCount)
	}
	if det.ESNRdB < 30 {
		t.Errorf("detection ESNR = %v", det.ESNRdB)
	}
	if det.SNRsDB[0] != 35 {
		t.Errorf("CSI snapshot missing: %v", det.SNRsDB[0])
	}
}

func TestMediumLossAtLowSNR(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(32))
	rx := &collector{}
	a, b := node("a", nil), node("b", rx)
	ch.set(a, b, 10) // 15 dB below MCS7's threshold
	m.Register(a)
	m.Register(b)
	m.Transmit(dataTx(a, b.Addr, 16, phy.Rates[7]))
	loop.Run(sim.Time(20 * sim.Millisecond))
	if len(rx.dets) != 1 {
		t.Fatalf("delivered %d", len(rx.dets))
	}
	for i, ok := range rx.dets[0].OK {
		if ok {
			t.Errorf("MPDU %d decoded at 10 dB ESNR on MCS7", i)
		}
	}
	// Same SNR on MCS0 succeeds: rate adaptation has something to work
	// with.
	rx2 := &collector{}
	b2 := node("b2", rx2)
	ch.set(a, b2, 10)
	m.Register(b2)
	m.Transmit(dataTx(a, b2.Addr, 4, phy.Rates[0]))
	loop.Run(sim.Time(40 * sim.Millisecond))
	got := 0
	for _, ok := range rx2.dets[len(rx2.dets)-1].OK {
		if ok {
			got++
		}
	}
	if got < 3 {
		t.Errorf("MCS0 decoded only %d/4 at 10 dB", got)
	}
}

func TestMediumOutOfRangeSilent(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(33))
	rx := &collector{}
	a, b := node("a", nil), node("b", rx)
	// No channel entry: b cannot hear a at all.
	m.Register(a)
	m.Register(b)
	m.Transmit(dataTx(a, b.Addr, 4, phy.Rates[0]))
	loop.Run(sim.Time(20 * sim.Millisecond))
	if len(rx.frames) != 0 {
		t.Error("out-of-range node received a frame")
	}
}

func TestMediumCollisionWithoutCapture(t *testing.T) {
	// Two hidden transmitters (can't sense each other), equal power at
	// the receiver: overlap destroys both frames.
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(34))
	rx := &collector{}
	a, b, c := node("a", nil), node("b", nil), node("c", rx)
	ch.set(a, c, 25)
	ch.set(b, c, 25)
	// a and b cannot hear each other (no entry) — hidden terminals.
	m.Register(a)
	m.Register(b)
	m.Register(c)
	m.Transmit(dataTx(a, c.Addr, 8, phy.Rates[4]))
	m.Transmit(dataTx(b, c.Addr, 8, phy.Rates[4]))
	loop.Run(sim.Time(20 * sim.Millisecond))

	if len(rx.dets) != 2 {
		t.Fatalf("deliveries = %d", len(rx.dets))
	}
	for i, det := range rx.dets {
		if !det.Collided {
			t.Errorf("frame %d not marked collided", i)
		}
		for _, ok := range det.OK {
			if ok {
				t.Errorf("frame %d: MPDU decoded through collision", i)
			}
		}
	}
	if m.Stats().Collisions != 2 {
		t.Errorf("collision stat = %d", m.Stats().Collisions)
	}
}

func TestMediumCaptureStrongerFrameSurvives(t *testing.T) {
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(35))
	rx := &collector{}
	a, b, c := node("a", nil), node("b", nil), node("c", rx)
	ch.set(a, c, 35) // strong
	ch.set(b, c, 8)  // weak interferer, >10 dB below
	m.Register(a)
	m.Register(b)
	m.Register(c)
	m.Transmit(dataTx(a, c.Addr, 8, phy.Rates[4]))
	m.Transmit(dataTx(b, c.Addr, 8, phy.Rates[0]))
	loop.Run(sim.Time(20 * sim.Millisecond))

	var strongDet *Detection
	for i, f := range rx.frames {
		if f.Tx == a {
			strongDet = &rx.dets[i]
		}
	}
	if strongDet == nil {
		t.Fatal("strong frame not delivered")
	}
	if strongDet.Collided {
		t.Error("strong frame lost despite 27 dB capture margin")
	}
}

func TestMediumCarrierSenseSerializes(t *testing.T) {
	// Two transmitters that CAN hear each other must not overlap.
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(36))
	rx := &collector{}
	a, b, c := node("a", nil), node("b", nil), node("c", rx)
	ch.set(a, c, 30)
	ch.set(b, c, 30)
	ch.set(a, b, 30) // mutual carrier sense
	m.Register(a)
	m.Register(b)
	m.Register(c)

	send := func(n *Node) {
		m.Contend(n, 16, func() {
			m.Transmit(dataTx(n, c.Addr, 8, phy.Rates[4]))
		})
	}
	send(a)
	send(b)
	loop.Run(sim.Time(50 * sim.Millisecond))

	if len(rx.frames) != 2 {
		t.Fatalf("deliveries = %d", len(rx.frames))
	}
	for i, det := range rx.dets {
		if det.Collided {
			t.Errorf("frame %d collided despite carrier sense", i)
		}
	}
	// Non-overlap: second frame starts after first ends.
	f0, f1 := rx.frames[0], rx.frames[1]
	if f1.Start < f0.End && f0.Start < f1.End {
		t.Errorf("frames overlap: [%v,%v] vs [%v,%v]", f0.Start, f0.End, f1.Start, f1.End)
	}
}

func TestMediumNAVProtectsBlockAck(t *testing.T) {
	// After a data PPDU, a contender must stay off the air through the
	// SIFS+BA window, so the receiver's BA (sent without contention)
	// does not collide.
	loop := sim.NewLoop()
	ch := newFakeChannel()
	m := NewMedium(loop, ch, sim.NewRNG(37))
	txDone := &collector{}
	a := node("a", txDone) // transmitter hears BA back
	rxC := &collector{}
	c := node("c", rxC) // client
	b := node("b", nil) // contender
	ch.set(a, c, 30)
	ch.set(b, c, 30)
	ch.set(a, b, 30)
	m.Register(a)
	m.Register(b)
	m.Register(c)

	data := dataTx(a, c.Addr, 8, phy.Rates[4])
	m.Transmit(data)
	// Client answers with BA at SIFS after data end.
	loop.At(data.End.Add(phy.SIFS), func() {
		m.Transmit(&Transmission{Tx: c, Dst: a.Addr, Type: FrameBlockAck, Rate: phy.BasicRate, BA: BAInfo{StartSeq: 0, Bitmap: 0xff}})
	})
	// Contender tries to grab the medium right in the SIFS gap.
	loop.At(data.End.Add(2*sim.Microsecond), func() {
		m.Contend(b, 16, func() {
			m.Transmit(dataTx(b, c.Addr, 8, phy.Rates[4]))
		})
	})
	loop.Run(sim.Time(50 * sim.Millisecond))

	// The BA must have arrived uncollided at a.
	var baDet *Detection
	for i, f := range txDone.frames {
		if f.Type == FrameBlockAck {
			baDet = &txDone.dets[i]
		}
	}
	if baDet == nil {
		t.Fatal("BA never delivered")
	}
	if baDet.Collided {
		t.Error("BA collided: NAV reservation not honored")
	}
}

func TestAggregatorBuildFreshAndWindow(t *testing.T) {
	a := NewAggregator()
	supply := 100
	pull := func() (packet.Packet, bool) {
		if supply == 0 {
			return packet.Packet{}, false
		}
		supply--
		return packet.Packet{Proto: packet.ProtoUDP, PayloadLen: 1400}, true
	}
	agg := a.Build(phy.Rates[7], pull)
	if len(agg) == 0 || len(agg) > phy.MaxAMPDUFrames {
		t.Fatalf("aggregate size %d", len(agg))
	}
	// Sequential seqs from 0.
	for i, m := range agg {
		if m.Seq != uint16(i) {
			t.Fatalf("seq[%d] = %d", i, m.Seq)
		}
	}
	// Empty source → nil aggregate.
	supply = 0
	if got := a.Build(phy.Rates[7], pull); len(got) != 0 {
		t.Errorf("empty-source aggregate size %d", len(got))
	}
}

func TestAggregatorRetryFlow(t *testing.T) {
	a := NewAggregator()
	n := 10
	pull := func() (packet.Packet, bool) {
		if n == 0 {
			return packet.Packet{}, false
		}
		n--
		return packet.Packet{PayloadLen: 1400, Seq: uint32(10 - n)}, true
	}
	sent := a.Build(phy.Rates[4], pull)
	if len(sent) != 10 {
		t.Fatalf("built %d", len(sent))
	}
	// BA acknowledges even seqs only.
	var ba BAInfo
	ba.StartSeq = sent[0].Seq
	for i := 0; i < len(sent); i += 2 {
		ba.Bitmap |= 1 << uint(i)
	}
	res := a.ProcessBA(sent, ba)
	if res.AckedCount != 5 || res.LostCount != 5 {
		t.Fatalf("acked=%d lost=%d", res.AckedCount, res.LostCount)
	}
	if a.PendingRetries() != 5 {
		t.Fatalf("pending retries = %d", a.PendingRetries())
	}
	// Next build front-loads the retries with their original seqs.
	next := a.Build(phy.Rates[4], func() (packet.Packet, bool) { return packet.Packet{}, false })
	if len(next) != 5 {
		t.Fatalf("retry aggregate size %d", len(next))
	}
	for _, m := range next {
		if m.Seq%2 == 0 {
			t.Errorf("acked seq %d retransmitted", m.Seq)
		}
		if m.Retries != 1 {
			t.Errorf("retry count = %d", m.Retries)
		}
	}
}

func TestAggregatorDropAfterRetryLimit(t *testing.T) {
	a := NewAggregator()
	one := true
	sent := a.Build(phy.Rates[0], func() (packet.Packet, bool) {
		if one {
			one = false
			return packet.Packet{PayloadLen: 100}, true
		}
		return packet.Packet{}, false
	})
	if len(sent) != 1 {
		t.Fatal("setup failed")
	}
	var dropped int
	for i := 0; i < RetryLimit+2; i++ {
		res := a.Timeout(sent)
		dropped += res.DroppedCount
		sent = a.Build(phy.Rates[0], func() (packet.Packet, bool) { return packet.Packet{}, false })
		if len(sent) == 0 {
			break
		}
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want exactly 1", dropped)
	}
	if a.PendingRetries() != 0 {
		t.Error("retries linger after drop")
	}
}

func TestAggregatorDropRetries(t *testing.T) {
	a := NewAggregator()
	n := 4
	sent := a.Build(phy.Rates[7], func() (packet.Packet, bool) {
		if n == 0 {
			return packet.Packet{}, false
		}
		n--
		return packet.Packet{PayloadLen: 100}, true
	})
	a.Timeout(sent)
	if a.PendingRetries() != 4 {
		t.Fatal("setup failed")
	}
	if got := a.DropRetries(); len(got) != 4 {
		t.Errorf("DropRetries returned %d", len(got))
	}
	if a.PendingRetries() != 0 {
		t.Error("retries linger")
	}
}

// Property: ProcessBA partitions the aggregate — every MPDU is acked,
// retried, or dropped, never more than one.
func TestAggregatorPartitionProperty(t *testing.T) {
	f := func(bitmap uint64, count uint8) bool {
		a := NewAggregator()
		n := int(count%20) + 1
		left := n
		sent := a.Build(phy.Rates[5], func() (packet.Packet, bool) {
			if left == 0 {
				return packet.Packet{}, false
			}
			left--
			return packet.Packet{PayloadLen: 500}, true
		})
		res := a.ProcessBA(sent, BAInfo{StartSeq: sent[0].Seq, Bitmap: bitmap})
		return res.AckedCount+res.LostCount == len(sent) &&
			a.PendingRetries()+res.DroppedCount == res.LostCount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameTypeAndMgmtStrings(t *testing.T) {
	if FrameData.String() != "Data" || FrameBlockAck.String() != "BlockAck" ||
		FrameBeacon.String() != "Beacon" || FrameMgmt.String() != "Mgmt" {
		t.Error("frame strings wrong")
	}
	kinds := []MgmtKind{MgmtAuthReq, MgmtAuthResp, MgmtAssocReq, MgmtAssocResp, MgmtReassocReq, MgmtReassocResp}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "Mgmt(?)" || seen[s] {
			t.Errorf("bad mgmt string %q", s)
		}
		seen[s] = true
	}
}
