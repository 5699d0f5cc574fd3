package backhaul

import (
	"slices"
	"testing"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
)

const (
	nodeCtrl NodeID = iota
	nodeAP1
	nodeAP2
)

func TestDeliveryAndDecoding(t *testing.T) {
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	var got []packet.Message
	var from []NodeID
	net.AddNode(nodeCtrl, nil)
	net.AddNode(nodeAP1, func(f NodeID, m packet.Message) {
		got = append(got, m)
		from = append(from, f)
	})
	stop := &packet.Stop{Client: packet.ClientMAC(0), NewAP: packet.APMAC(1), NewAPID: 1, SwitchID: 42}
	net.Send(nodeCtrl, nodeAP1, stop)
	loop.Run(sim.Time(10 * sim.Millisecond))

	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	if from[0] != nodeCtrl {
		t.Errorf("from = %d, want controller", from[0])
	}
	m, ok := got[0].(*packet.Stop)
	if !ok {
		t.Fatalf("decoded type %T", got[0])
	}
	if m.SwitchID != 42 || m.NewAPID != 1 {
		t.Errorf("fields lost in transit: %+v", m)
	}
}

func TestLatencyIsRealistic(t *testing.T) {
	// A control message should cross the LAN in well under a
	// millisecond but not instantly.
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	var at sim.Time
	net.AddNode(nodeCtrl, nil)
	net.AddNode(nodeAP1, func(NodeID, packet.Message) { at = loop.Now() })
	net.Send(nodeCtrl, nodeAP1, &packet.Stop{})
	loop.Run(sim.Time(10 * sim.Millisecond))
	if at == 0 {
		t.Fatal("never delivered")
	}
	if at < sim.Time(50*sim.Microsecond) || at > sim.Time(1*sim.Millisecond) {
		t.Errorf("one-way latency %v outside sane LAN range", at)
	}
}

func TestControlBypassesData(t *testing.T) {
	// Queue a large burst of data messages, then one control message:
	// the control message must arrive before (almost all of) the data.
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	net.AddNode(nodeCtrl, nil)
	var order []packet.MsgType
	net.AddNode(nodeAP1, func(_ NodeID, m packet.Message) {
		order = append(order, m.Type())
	})
	for i := 0; i < 100; i++ {
		net.Send(nodeCtrl, nodeAP1, &packet.DownlinkData{Inner: packet.Packet{PayloadLen: 1400}})
	}
	net.Send(nodeCtrl, nodeAP1, &packet.Stop{SwitchID: 1})
	loop.Run(sim.Time(100 * sim.Millisecond))

	pos := -1
	for i, ty := range order {
		if ty == packet.MsgStop {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("control message never arrived")
	}
	if pos > 2 {
		t.Errorf("control message arrived at position %d, want ≤2 (priority bypass)", pos)
	}
	if len(order) != 101 {
		t.Errorf("delivered %d, want 101", len(order))
	}
}

func TestSerializationDelayOrdersData(t *testing.T) {
	// Data messages from one node arrive in FIFO order, spaced by at
	// least their serialization time.
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	net.AddNode(nodeCtrl, nil)
	var times []sim.Time
	var seqs []uint32
	net.AddNode(nodeAP1, func(_ NodeID, m packet.Message) {
		times = append(times, loop.Now())
		seqs = append(seqs, m.(*packet.DownlinkData).Inner.Seq)
	})
	for i := 0; i < 10; i++ {
		net.Send(nodeCtrl, nodeAP1, &packet.DownlinkData{Inner: packet.Packet{Seq: uint32(i), PayloadLen: 1400}})
	}
	loop.Run(sim.Time(100 * sim.Millisecond))
	for i := range seqs {
		if seqs[i] != uint32(i) {
			t.Fatalf("out of order: %v", seqs)
		}
		if i > 0 && times[i] <= times[i-1] {
			t.Fatalf("no serialization spacing: %v", times)
		}
	}
}

func TestBroadcast(t *testing.T) {
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	count := map[NodeID]int{}
	for _, id := range []NodeID{nodeCtrl, nodeAP1, nodeAP2} {
		id := id
		net.AddNode(id, func(NodeID, packet.Message) { count[id]++ })
	}
	net.Broadcast(nodeCtrl, &packet.AssocState{State: packet.StateAssociated})
	loop.Run(sim.Time(10 * sim.Millisecond))
	if count[nodeCtrl] != 0 {
		t.Error("broadcast echoed to sender")
	}
	if count[nodeAP1] != 1 || count[nodeAP2] != 1 {
		t.Errorf("broadcast counts = %v", count)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	net.AddNode(nodeCtrl, nil)
	net.Send(nodeCtrl, NodeID(99), &packet.Stop{})
	loop.Run(sim.Time(10 * sim.Millisecond)) // must not panic
	sent, delivered, _ := net.Stats()
	if sent != 1 || delivered != 0 {
		t.Errorf("sent=%d delivered=%d", sent, delivered)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddNode did not panic")
		}
	}()
	net := New(sim.NewLoop(), DefaultConfig())
	net.AddNode(nodeCtrl, nil)
	net.AddNode(nodeCtrl, nil)
}

func TestStatsAndTypeCounts(t *testing.T) {
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	net.AddNode(nodeCtrl, nil)
	net.AddNode(nodeAP1, func(NodeID, packet.Message) {})
	net.Send(nodeCtrl, nodeAP1, &packet.Stop{})
	net.Send(nodeCtrl, nodeAP1, &packet.DownlinkData{})
	net.Send(nodeCtrl, nodeAP1, &packet.DownlinkData{})
	loop.Run(sim.Time(10 * sim.Millisecond))
	sent, delivered, bytes := net.Stats()
	if sent != 3 || delivered != 3 {
		t.Errorf("sent=%d delivered=%d", sent, delivered)
	}
	if bytes <= 0 {
		t.Error("no bytes accounted")
	}
	if net.SentByType(packet.MsgDownlinkData) != 2 || net.SentByType(packet.MsgStop) != 1 {
		t.Error("per-type counts wrong")
	}
}

func TestHandlerlessNodeAcceptsTraffic(t *testing.T) {
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	net.AddNode(nodeCtrl, nil)
	net.AddNode(nodeAP1, nil)
	net.Send(nodeCtrl, nodeAP1, &packet.Stop{})
	loop.Run(sim.Time(10 * sim.Millisecond)) // must not panic
	_, delivered, _ := net.Stats()
	if delivered != 1 {
		t.Errorf("delivered = %d", delivered)
	}
}

// TestBroadcastOrder pins Broadcast's send order to ascending NodeID,
// whatever order the nodes were attached in: the copies queue on the
// sender's one egress port, so the order decides every delivery time,
// and map iteration order would make it differ between identical runs.
func TestBroadcastOrder(t *testing.T) {
	loop := sim.NewLoop()
	net := New(loop, DefaultConfig())
	var got []NodeID
	for _, id := range []NodeID{7, 2, 11, 0, 5, 9, 1, 12, 3, 8, 4, 10, 6} {
		id := id
		net.AddNode(id, func(NodeID, packet.Message) { got = append(got, id) })
	}
	net.Broadcast(5, &packet.AssocState{State: packet.StateAssociated})
	loop.Run(sim.Time(10 * sim.Millisecond))
	want := []NodeID{0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12}
	if !slices.Equal(got, want) {
		t.Fatalf("broadcast delivered to %v, want %v", got, want)
	}
}
