package client

import (
	"maps"
	"math/rand"
	"testing"

	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// quietAP is an AP radio that answers decoded uplink aggregates with a
// block ACK (when ack is set) from the medium's pool, its SIFS callback
// bound once, so the stub itself allocates nothing.
type quietAP struct {
	loop    *sim.Loop
	medium  *mac.Medium
	node    *mac.Node
	ack     bool
	frames  int
	ba      mac.BAInfo
	dst     packet.MAC
	replyFn func()
}

func newQuietAP(loop *sim.Loop, medium *mac.Medium) *quietAP {
	a := &quietAP{loop: loop, medium: medium, ack: true}
	a.node = newAPStub(loop, medium, 0, false).node
	a.node.Recv = a
	a.replyFn = a.reply
	return a
}

func (a *quietAP) OnReceive(t *mac.Transmission, det mac.Detection) {
	if t.Type != mac.FrameData || t.Dst != packet.BSSID || det.Collided {
		return
	}
	a.frames++
	if a.ack {
		a.ba, a.dst = mac.BuildBitmap(t.MPDUs, det.OK), t.Tx.Addr
		a.loop.After(phy.SIFS, a.replyFn)
	}
}

func (a *quietAP) reply() {
	bat := a.medium.NewTransmission()
	bat.Tx, bat.Dst, bat.Type, bat.Rate, bat.BA = a.node, a.dst, mac.FrameBlockAck, phy.BasicRate, a.ba
	a.medium.Transmit(bat)
}

// TestClientBACycleAllocatesNothing runs the client's uplink cycle —
// SendUplink, contention, the aggregate on air and its BA wait settled
// by a block ACK or by the timeout — with keepalives re-arming
// alongside, and requires that once the pools are warm a cycle
// allocates nothing: txop, keepalive and the BA-wait record with its
// timeout are each bound once. A second packet, sent while the first
// aggregate flies, goes out right after the first settles, so the
// record and its timer are re-armed soon after their previous use.
func TestClientBACycleAllocatesNothing(t *testing.T) {
	for _, acked := range []bool{true, false} {
		loop := sim.NewLoop()
		medium := mac.NewMedium(loop, flatChannel{snr: 30}, sim.NewRNG(3))
		ap := newQuietAP(loop, medium)
		ap.ack = acked
		cfg := DefaultConfig()
		cfg.KeepaliveInterval = 5 * sim.Millisecond
		c := New(0, loop, medium, mobility.Stationary{}, cfg, sim.NewRNG(4))
		p := packet.Packet{Dst: packet.ServerIP, Proto: packet.ProtoUDP, DstPort: 7001, PayloadLen: 900}
		cycle := func() {
			start := loop.Now()
			c.SendUplink(p)
			loop.Run(start.Add(200 * sim.Microsecond))
			c.SendUplink(p)
			loop.Run(start.Add(40 * sim.Millisecond))
		}
		cycle()
		aw := c.baWait
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 && !sim.OwnerChecked {
			t.Errorf("acked=%v: an uplink BA cycle allocates %v objects, want 0", acked, allocs)
		}
		if c.baWait != aw || aw == nil {
			t.Errorf("acked=%v: the BA-wait record was replaced", acked)
		}
		if c.KeepalivesSent == 0 {
			t.Errorf("acked=%v: no keepalive fired during the cycles", acked)
		}
		if acked && c.BATimeouts != 0 {
			t.Errorf("every aggregate was acked, yet %d BA timeouts fired", c.BATimeouts)
		}
		// 52 cycles: the warm-up, AllocsPerRun's own warm-up and 50.
		if !acked && c.BATimeouts < 2*52*mac.RetryLimit {
			t.Errorf("silent AP: %d BA timeouts over 104 packets, want ≥ %d", c.BATimeouts, 2*52*mac.RetryLimit)
		}
	}
}

// TestClientBAWaitReusedAfterDetach: Detach cancels an outstanding BA
// wait, whose timer then never fires on the old loop, and the adopting
// loop's next aggregate reuses the record.
func TestClientBAWaitReusedAfterDetach(t *testing.T) {
	loop := sim.NewLoop()
	medium := mac.NewMedium(loop, flatChannel{snr: 30}, sim.NewRNG(3))
	ap := newQuietAP(loop, medium)
	ap.ack = false
	cfg := DefaultConfig()
	cfg.KeepaliveInterval = 0
	c := New(0, loop, medium, mobility.Stationary{}, cfg, sim.NewRNG(4))
	c.SendUplink(packet.Packet{Dst: packet.ServerIP, Proto: packet.ProtoUDP, PayloadLen: 900})
	for c.await == nil {
		loop.Run(loop.Now().Add(10 * sim.Microsecond))
	}
	aw := c.baWait
	c.Detach()
	loop.Run(loop.Now().Add(10 * sim.Millisecond))
	if c.BATimeouts != 1 {
		t.Fatalf("%d BA timeouts after Detach and the old deadline, want the 1 Detach counts", c.BATimeouts)
	}

	loop2 := sim.NewLoop()
	loop2.Run(loop.Now())
	medium2 := mac.NewMedium(loop2, flatChannel{snr: 30}, sim.NewRNG(5))
	ap2 := newQuietAP(loop2, medium2)
	c.Attach(loop2, medium2, nil)
	loop2.Run(loop2.Now().Add(10 * sim.Millisecond))
	if ap2.frames == 0 || c.QueueLen() != 0 || c.await != nil {
		t.Fatalf("adopting loop: %d frames heard, queue %d, awaiting %v", ap2.frames, c.QueueLen(), c.await != nil)
	}
	if c.baWait != aw {
		t.Error("the adopting loop's aggregate took a new BA-wait record")
	}
}

// sliceWindow is the duplicate window as a re-sliced queue: append the
// key, and once the queue outgrows size, delete and drop its front.
type sliceWindow[K comparable] struct {
	seen map[K]bool
	q    []K
}

func (w *sliceWindow[K]) remember(k K, size int) {
	w.seen[k] = true
	w.q = append(w.q, k)
	if len(w.q) > size {
		delete(w.seen, w.q[0])
		w.q = w.q[1:]
	}
}

// TestDupWindowMatchesSlicedQueue feeds random key streams, repeats of
// live and of evicted keys included, to dupWindow and to the re-sliced
// queue it replaced, and requires equal sets after every step.
func TestDupWindowMatchesSlicedQueue(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64, macDedupWindow} {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := dupWindow[int]{seen: map[int]bool{}}
			ref := sliceWindow[int]{seen: map[int]bool{}}
			keys := 1 + rng.Intn(3*size)
			for step := 0; step < 20*size+50; step++ {
				k := rng.Intn(keys)
				w.remember(k, size)
				ref.remember(k, size)
				if !maps.Equal(w.seen, ref.seen) {
					t.Fatalf("size %d seed %d step %d (key %d): window %v, sliced queue %v",
						size, seed, step, k, w.seen, ref.seen)
				}
			}
			if len(w.ring) > size {
				t.Fatalf("size %d: ring grew to %d", size, len(w.ring))
			}
		}
	}
}

// TestDupWindowFullAllocatesNothing: a full window evicts in place.
func TestDupWindowFullAllocatesNothing(t *testing.T) {
	w := dupWindow[packet.DedupKey]{seen: map[packet.DedupKey]bool{}}
	k := packet.DedupKey(0)
	for ; k < 2*ipDedupWindow; k++ {
		w.remember(k, ipDedupWindow)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		w.remember(k, ipDedupWindow)
		k++
	}); allocs != 0 {
		t.Errorf("remembering into a full window allocates %v objects, want 0", allocs)
	}
}
