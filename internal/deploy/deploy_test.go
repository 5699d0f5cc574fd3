package deploy

import (
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

func TestResolveChainsSegments(t *testing.T) {
	geoms := Resolve([]SegmentSpec{
		{NumAPs: 4},                         // inherits spacing 7.5
		{NumAPs: 2, APSpacing: 15, Gap: 30}, // explicit gap
		{NumAPs: 3, APSetback: 25},          // default gap = own (inherited) spacing
	}, 0, 7.5, 0)

	if len(geoms) != 3 {
		t.Fatalf("resolved %d geometries, want 3", len(geoms))
	}
	// Segment 0: APs at 0..22.5. Segment 1 starts 30 m past AP 3.
	if geoms[1].FirstAPX != 52.5 {
		t.Errorf("segment 1 FirstAPX = %g, want 52.5", geoms[1].FirstAPX)
	}
	// Segment 1 spans 52.5..67.5; segment 2 starts one 7.5 m pitch later.
	if geoms[2].FirstAPX != 75 {
		t.Errorf("segment 2 FirstAPX = %g, want 75", geoms[2].FirstAPX)
	}
	if geoms[2].APSetback != 25 {
		t.Errorf("segment 2 APSetback = %g, want 25", geoms[2].APSetback)
	}
	if geoms[0].APSpacing != 7.5 || geoms[2].APSpacing != 7.5 {
		t.Errorf("inherited spacings = %g, %g, want 7.5", geoms[0].APSpacing, geoms[2].APSpacing)
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{NumAPs: 0, APSpacing: 7.5}).Validate(); err == nil {
		t.Error("accepted zero NumAPs")
	}
	if err := (Geometry{NumAPs: 4, APSpacing: 0}).Validate(); err == nil {
		t.Error("accepted zero APSpacing")
	}
	if err := (Geometry{NumAPs: 4, APSpacing: 7.5}).Validate(); err != nil {
		t.Errorf("rejected valid geometry: %v", err)
	}
}

func TestSegmentAPOwnership(t *testing.T) {
	d := &Deployment{Segments: []*Segment{
		{Index: 0, APBase: 0, Geom: Geometry{NumAPs: 8, APSpacing: 7.5}},
		{Index: 1, APBase: 8, Geom: Geometry{NumAPs: 4, APSpacing: 15, FirstAPX: 60}},
	}}
	if got := d.TotalAPs(); got != 12 {
		t.Fatalf("TotalAPs = %d, want 12", got)
	}
	if s := d.SegmentOfAP(7); s == nil || s.Index != 0 {
		t.Errorf("AP 7 resolved to %v, want segment 0", s)
	}
	if s := d.SegmentOfAP(8); s == nil || s.Index != 1 {
		t.Errorf("AP 8 resolved to %v, want segment 1", s)
	}
	if s := d.SegmentOfAP(12); s != nil {
		t.Errorf("AP 12 resolved to segment %d, want none", s.Index)
	}
	if p := d.Segments[1].APPosition(2); p.X != 90 {
		t.Errorf("segment 1 AP 2 at x=%g, want 90", p.X)
	}
}

// TestTrunkFIFO pins the trunk's delivery model: strict FIFO order, and
// per-message latency = serialization at the line rate + propagation,
// with back-to-back messages queuing behind each other's serialization.
func TestTrunkFIFO(t *testing.T) {
	loop := sim.NewLoop()
	tr := NewTrunkTransport(loop.Now, NewLoopTransport(loop),
		TrunkConfig{LinkMbps: 1000, PropDelay: 200 * sim.Microsecond})
	var got []uint32
	var times []sim.Time
	tr.deliver = func(m packet.Message) {
		got = append(got, m.(*packet.SwitchAck).SwitchID)
		times = append(times, loop.Now())
	}
	// Two identical control messages sent at t=0 back to back.
	tr.Deliver(&packet.SwitchAck{SwitchID: 1})
	tr.Deliver(&packet.SwitchAck{SwitchID: 2})
	loop.Run(sim.Time(sim.Second))

	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered %v, want FIFO [1 2]", got)
	}
	wire := (&packet.SwitchAck{}).WireLen() + trunkEncapOverhead
	ser := sim.Duration(float64(wire*8) / 1000 * float64(sim.Microsecond))
	want0 := sim.Time(0).Add(ser + 200*sim.Microsecond)
	want1 := sim.Time(0).Add(2*ser + 200*sim.Microsecond)
	if times[0] != want0 {
		t.Errorf("first delivery at %v, want %v", times[0], want0)
	}
	if times[1] != want1 {
		t.Errorf("second delivery at %v (queued behind first), want %v", times[1], want1)
	}
}

// TestMixedSchemePanics pins the wiring guard: a WGTT segment cannot
// trunk to a baseline segment.
func TestMixedSchemePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ConnectNext accepted planes of different schemes")
		}
	}()
	loop := sim.NewLoop()
	cfg := DefaultTrunkConfig()
	(&WGTTPlane{}).ConnectNext(&BaselinePlane{},
		NewTrunkTransport(loop.Now, NewLoopTransport(loop), cfg),
		NewTrunkTransport(loop.Now, NewLoopTransport(loop), cfg))
}

// TestLoopTransportRecords: messages in flight together each keep their
// own record until they arrive, in order, and once the pool is warm a
// post and its arrival allocate nothing.
func TestLoopTransportRecords(t *testing.T) {
	loop := sim.NewLoop()
	lt := NewLoopTransport(loop)
	var got []packet.Message
	lt.OnDeliver(func(m packet.Message) { got = append(got, m) })
	msgs := []packet.Message{&packet.Stop{SwitchID: 1}, &packet.Stop{SwitchID: 2}, &packet.Stop{SwitchID: 3}}
	for i, m := range msgs {
		lt.Post(sim.Time(sim.Duration(i+1)*sim.Millisecond), m)
	}
	loop.Run(sim.Time(3 * sim.Millisecond))
	if len(got) != 3 || got[0] != msgs[0] || got[1] != msgs[1] || got[2] != msgs[2] {
		t.Fatalf("arrivals %v, want the three posts in order", got)
	}
	if len(lt.free) != 3 {
		t.Fatalf("%d records back in the pool after three arrivals, want 3", len(lt.free))
	}
	got = got[:0]
	if allocs := testing.AllocsPerRun(100, func() {
		lt.Post(loop.Now().Add(sim.Millisecond), msgs[0])
		loop.Run(loop.Now().Add(sim.Millisecond))
		got = got[:0]
	}); allocs != 0 && !sim.OwnerChecked {
		t.Errorf("a post and its arrival allocate %v objects, want 0", allocs)
	}
}
