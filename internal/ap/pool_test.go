package ap

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/mac"
	"wgtt/internal/packet"
	"wgtt/internal/phy"
	"wgtt/internal/sim"
)

// quietClient is a client radio that answers decoded downlink aggregates
// with a block ACK (when ack is set) from the medium's pool, its SIFS
// callback bound once, so the stub itself allocates nothing.
type quietClient struct {
	*clientSink
	ack     bool
	frames  int
	ba      mac.BAInfo
	dst     packet.MAC
	replyFn func()
}

func newQuietClient(r *apRig) *quietClient {
	c := &quietClient{clientSink: r.cli, ack: true}
	c.node.Recv = c
	c.replyFn = c.reply
	return c
}

func (c *quietClient) OnReceive(t *mac.Transmission, det mac.Detection) {
	if t.Type != mac.FrameData || t.Dst != c.node.Addr || det.Collided {
		return
	}
	c.frames++
	if c.ack {
		c.ba, c.dst = mac.BuildBitmap(t.MPDUs, det.OK), t.Tx.Addr
		c.loop.After(phy.SIFS, c.replyFn)
	}
}

func (c *quietClient) reply() {
	bat := c.medium.NewTransmission()
	bat.Tx, bat.Dst, bat.Type, bat.Rate, bat.BA = c.node, c.dst, mac.FrameBlockAck, phy.BasicRate, c.ba
	c.medium.Transmit(bat)
}

// TestAPBACycleAllocatesNothing runs the AP's downlink cycle — a packet
// fanned in over the backhaul, contention, the aggregate on air and its
// BA wait settled — and requires that once the pools are warm a cycle
// allocates nothing. The wait settles four ways: the client's own block
// ACK; the deadline with BA forwarding off; the deadline, the ForwardBAs
// extension on the same record and timer, then its expiry; and the
// extension settled by a forwarded block ACK. txop and the BA-wait record
// with its deadline are each bound once. A second packet, fanned in
// while the first aggregate flies, goes out right after the first
// settles, so the record and its timer are re-armed soon after their
// previous use.
func TestAPBACycleAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		ack, forward, injectBA bool
	}{
		{"acked", true, true, false},
		{"timed out", false, false, false},
		{"extended", false, true, false},
		{"extended, forwarded BA", false, true, true},
	} {
		cfg := DefaultConfig()
		cfg.ForwardBAs = tc.forward
		r := newAPRig(t, 1, cfg, false)
		// The rig's controller node records every message it gets; the
		// AP's CSI reports and acks go to a silent one instead.
		ctrl := nodeCtrl + 1
		r.bh.AddNode(ctrl, func(backhaul.NodeID, packet.Message) {})
		a := r.aps[0]
		a.fabric = silentFabric{fakeFabric{numAPs: 1}, ctrl}
		cli := newQuietClient(r)
		cli.ack = tc.ack
		r.bh.Send(ctrl, nodeAP0, &packet.Start{Client: packet.ClientMAC(0), Index: 0, SwitchID: 1})
		r.run(sim.Millisecond)
		dl := packet.DownlinkData{Client: packet.ClientMAC(0), Inner: packet.Packet{
			Src: packet.ServerIP, Dst: packet.ClientIP(0), Proto: packet.ProtoUDP, PayloadLen: 1000}}
		fwd := &packet.BAForward{Client: packet.ClientMAC(0), FromAPID: 9, Bitmap: ^uint64(0)}
		idx := uint16(0)
		send := func() {
			dl.Inner.Index, dl.Inner.IPID = idx, idx
			idx++
			r.bh.Send(ctrl, nodeAP0, &dl)
		}
		cycle := func() {
			start := r.loop.Now()
			end := start.Add(40 * sim.Millisecond)
			send()
			r.loop.Run(start.Add(300 * sim.Microsecond))
			send()
			for tc.injectBA && r.loop.Now() < end {
				r.loop.Run(r.loop.Now().Add(20 * sim.Microsecond))
				if aw := a.await; aw != nil && aw.extended {
					fwd.StartSeq = aw.start
					a.OnBackhaul(ctrl, fwd)
				}
			}
			r.loop.Run(end)
		}
		cycle()
		aw := a.baWait
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 && !sim.OwnerChecked {
			t.Errorf("%s: a downlink BA cycle allocates %v objects, want 0", tc.name, allocs)
		}
		if a.baWait != aw || aw == nil {
			t.Errorf("%s: the BA-wait record was replaced", tc.name)
		}
		// 52 cycles of two packets: the warm-up, AllocsPerRun's own
		// warm-up and 50.
		st := a.AggStats(packet.ClientMAC(0))
		switch {
		case tc.ack && (st.Acked != 104 || st.Resent != 0):
			t.Errorf("%s: %d acked, %d resent; want 104 and 0 (a spurious deadline fired?)", tc.name, st.Acked, st.Resent)
		case tc.injectBA && (st.Acked != 104 || a.BARecovered < 52 || st.Resent != 0):
			t.Errorf("%s: %d acked, %d recovered, %d resent; want 104, at least 52 and 0", tc.name, st.Acked, a.BARecovered, st.Resent)
		case !tc.ack && !tc.injectBA && st.Dropped != 104:
			t.Errorf("%s: %d dropped after the retry limit, want 104", tc.name, st.Dropped)
		}
	}
}

// silentFabric routes the AP's controller-bound messages to ctrl.
type silentFabric struct {
	fakeFabric
	ctrl backhaul.NodeID
}

func (f silentFabric) Controller() backhaul.NodeID { return f.ctrl }
