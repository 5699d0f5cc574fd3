package baseline

import (
	"testing"

	"wgtt/internal/backhaul"
	"wgtt/internal/client"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/packet"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

const (
	nodeBridge backhaul.NodeID = 0
	nodeServer backhaul.NodeID = 1
	nodeAP0    backhaul.NodeID = 2
)

type fakeFabric struct{}

func (fakeFabric) APNode(id uint16) backhaul.NodeID { return nodeAP0 + backhaul.NodeID(id) }
func (fakeFabric) Bridge() backhaul.NodeID          { return nodeBridge }

// flatChannel gives every pair a fixed SNR (good everywhere), except for
// per-transmitter overrides that tests mutate to weaken or kill one AP's
// link.
type flatChannel struct {
	snr      float64
	override map[*mac.Node]float64
}

func (f *flatChannel) set(tx *mac.Node, snr float64) {
	if f.override == nil {
		f.override = make(map[*mac.Node]float64)
	}
	f.override[tx] = snr
}

func (f *flatChannel) snrOf(tx *mac.Node) float64 {
	if v, ok := f.override[tx]; ok {
		return v
	}
	return f.snr
}

func (f *flatChannel) SubcarrierSNRs(tx, rx *mac.Node, _, floor float64, dst []float64) (bool, bool) {
	s := f.snrOf(tx)
	if s < -50 {
		return false, false
	}
	return true, rf.FillFlatSNRsDB(s, floor, dst)
}
func (f *flatChannel) SenseSNRdB(tx, rx *mac.Node) float64 { return f.snrOf(tx) }

type rig struct {
	loop   *sim.Loop
	bh     *backhaul.Net
	medium *mac.Medium
	ch     *flatChannel
	bridge *Bridge
	aps    []*AP
	cli    *client.Client
	server []packet.Message
}

func newRig(t *testing.T, numAPs int) *rig {
	t.Helper()
	r := &rig{loop: sim.NewLoop()}
	r.bh = backhaul.New(r.loop, backhaul.DefaultConfig())
	r.ch = &flatChannel{snr: 30}
	r.medium = mac.NewMedium(r.loop, r.ch, sim.NewRNG(7))
	r.bridge = NewBridge(r.loop, r.bh, nodeBridge, fakeFabric{}, nodeServer, 0, numAPs)
	r.bh.AddNode(nodeServer, func(_ backhaul.NodeID, m packet.Message) {
		r.server = append(r.server, m)
	})
	for i := 0; i < numAPs; i++ {
		a := NewAP(uint16(i), positionOf(i), r.loop, r.medium, r.bh,
			nodeAP0+backhaul.NodeID(i), fakeFabric{}, DefaultAPConfig(), sim.NewRNG(int64(20+i)))
		r.aps = append(r.aps, a)
	}
	r.cli = client.New(0, r.loop, r.medium, mobility.Stationary{}, client.DefaultConfig(), sim.NewRNG(42))
	return r
}

func positionOf(i int) rf.Position {
	return rf.Position{X: float64(i) * 7.5, Y: 18}
}

func (r *rig) run(d sim.Duration) { r.loop.Run(r.loop.Now().Add(d)) }

func TestBeaconsAreTransmitted(t *testing.T) {
	r := newRig(t, 2)
	seen := map[string]int{}
	r.cli.OnBeacon = func(tx *mac.Node, esnr float64) { seen[tx.Name]++ }
	r.run(1 * sim.Second)
	if len(seen) != 2 {
		t.Fatalf("heard beacons from %d APs, want 2", len(seen))
	}
	for name, n := range seen {
		// 100 ms interval → ≈10 beacons per second.
		if n < 7 || n > 13 {
			t.Errorf("%s: %d beacons in 1 s, want ≈10", name, n)
		}
	}
	if r.aps[0].BeaconsSent < 7 {
		t.Errorf("BeaconsSent = %d", r.aps[0].BeaconsSent)
	}
}

func TestForceAssociateRoutesDownlink(t *testing.T) {
	r := newRig(t, 2)
	got := []packet.Packet{}
	r.cli.OnPacket = func(p packet.Packet) { got = append(got, p) }
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	r.run(5 * sim.Millisecond)
	if r.bridge.AssociatedAP(r.cli.Addr) != 0 {
		t.Fatal("bridge did not learn the association")
	}
	// Downlink through the bridge reaches the client via AP0.
	for i := 0; i < 5; i++ {
		r.bridge.Downlink(packet.Packet{
			Src: packet.ServerIP, Dst: r.cli.IP, Proto: packet.ProtoUDP,
			IPID: uint16(i + 1), DstPort: 9001, PayloadLen: 800,
		})
	}
	r.run(50 * sim.Millisecond)
	if len(got) != 5 {
		t.Fatalf("client received %d/5", len(got))
	}
	if r.bridge.DownlinkPackets != 5 {
		t.Errorf("bridge counted %d", r.bridge.DownlinkPackets)
	}
}

func TestBridgeDropsUnroutable(t *testing.T) {
	r := newRig(t, 1)
	r.bridge.Downlink(packet.Packet{Dst: packet.IP{1, 2, 3, 4}, PayloadLen: 10})
	// Known client but not associated anywhere:
	r.bridge.RegisterClient(r.cli.Addr, r.cli.IP)
	r.bridge.Downlink(packet.Packet{Dst: r.cli.IP, PayloadLen: 10})
	if r.bridge.NoRoutePackets != 2 {
		t.Errorf("NoRoutePackets = %d, want 2", r.bridge.NoRoutePackets)
	}
}

func TestRoamerSwitchesOnWeakCurrent(t *testing.T) {
	r := newRig(t, 2)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	cfg := DefaultRoamerConfig()
	cfg.Hysteresis = 100 * sim.Millisecond
	cfg.Debounce = 2
	roamer := NewRoamer(r.loop, r.medium, r.cli, r.aps[0].Node(), cfg)

	// The current AP's link is genuinely weak (below the threshold);
	// AP1's is strong. The roamer learns this from real beacons.
	r.ch.set(r.aps[0].Node(), 4)
	r.run(1 * sim.Second)
	if roamer.Current() != r.aps[1].Node() {
		t.Fatalf("roamer stayed on %s", roamer.Current().Name)
	}
	if roamer.Successes != 1 {
		t.Errorf("Successes = %d", roamer.Successes)
	}
	// The bridge must have re-routed.
	if r.bridge.AssociatedAP(r.cli.Addr) != 1 {
		t.Errorf("bridge association = %d, want 1", r.bridge.AssociatedAP(r.cli.Addr))
	}
	// The old AP must have released the client.
	r.run(10 * sim.Millisecond)
	if r.aps[0].Associated(r.cli.Addr) {
		t.Error("old AP still considers the client associated")
	}
	if !r.aps[1].Associated(r.cli.Addr) {
		t.Error("new AP not associated")
	}
}

func TestRoamerDebounceBlocksOneOff(t *testing.T) {
	r := newRig(t, 2)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	cfg := DefaultRoamerConfig()
	cfg.Debounce = 3
	roamer := NewRoamer(r.loop, r.medium, r.cli, r.aps[0].Node(), cfg)
	// A single mild dip among strong readings must not trigger a roam:
	// the smoothed RSSI recovers above threshold before the debounce
	// count is met.
	r.cli.OnBeacon(r.aps[1].Node(), 25)
	r.cli.OnBeacon(r.aps[0].Node(), 8) // single mild dip
	r.run(300 * sim.Millisecond)       // real 30 dB beacons recover the EWMA
	if roamer.Attempts != 0 {
		t.Errorf("roamed after a single mild dip (attempts=%d)", roamer.Attempts)
	}
}

func TestRoamerHysteresisSpacing(t *testing.T) {
	r := newRig(t, 3)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	cfg := DefaultRoamerConfig()
	cfg.Hysteresis = 1 * sim.Second
	cfg.Debounce = 1
	roamer := NewRoamer(r.loop, r.medium, r.cli, r.aps[0].Node(), cfg)
	// Roam once to AP1.
	r.cli.OnBeacon(r.aps[1].Node(), 25)
	r.cli.OnBeacon(r.aps[0].Node(), 2)
	r.run(100 * sim.Millisecond)
	if roamer.Successes != 1 {
		t.Fatalf("setup roam failed (successes=%d)", roamer.Successes)
	}
	// Immediately try to provoke another: hysteresis must block.
	r.cli.OnBeacon(r.aps[2].Node(), 30)
	r.cli.OnBeacon(r.aps[1].Node(), 2)
	r.run(100 * sim.Millisecond)
	if roamer.Attempts != 1 {
		t.Errorf("second roam inside hysteresis (attempts=%d)", roamer.Attempts)
	}
}

func TestRoamerBeaconLossFallback(t *testing.T) {
	r := newRig(t, 2)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	cfg := DefaultRoamerConfig()
	cfg.BeaconLossTimeout = 300 * sim.Millisecond
	cfg.Hysteresis = 100 * sim.Millisecond
	roamer := NewRoamer(r.loop, r.medium, r.cli, r.aps[0].Node(), cfg)
	// The current AP is heard for a while, then its radio path dies
	// entirely; only AP1's beacons keep arriving. The threshold rule
	// can't see a dead link — the beacon-loss fallback must.
	r.run(400 * sim.Millisecond)
	r.ch.set(r.aps[0].Node(), -100)
	r.run(1 * sim.Second)
	if roamer.Current() != r.aps[1].Node() {
		t.Error("roamer never fell back after losing the current AP's beacons")
	}
}

func TestStock11rRequiresHistory(t *testing.T) {
	r := newRig(t, 2)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	cfg := Stock11rConfig()
	cfg.Hysteresis = 100 * sim.Millisecond
	cfg.Debounce = 1
	roamer := NewRoamer(r.loop, r.medium, r.cli, r.aps[0].Node(), cfg)
	// Weak current + strong candidate from the start: stock 11r must
	// sit on its 5-second history requirement before moving.
	r.ch.set(r.aps[0].Node(), 4)
	r.run(4 * sim.Second)
	if roamer.Attempts != 0 {
		t.Fatalf("stock 11r roamed after only %.1f s of history", r.loop.Now().Seconds())
	}
	// After five seconds of history it may finally move.
	r.run(3 * sim.Second)
	if roamer.Attempts == 0 {
		t.Error("stock 11r never roamed even with history")
	}
}

func TestUplinkThroughAssociatedAPOnly(t *testing.T) {
	r := newRig(t, 2)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	NewRoamer(r.loop, r.medium, r.cli, r.aps[0].Node(), DefaultRoamerConfig())
	r.run(5 * sim.Millisecond)
	r.cli.SendUplink(packet.Packet{
		Dst: packet.ServerIP, Proto: packet.ProtoUDP, DstPort: 7007, PayloadLen: 700,
	})
	r.run(20 * sim.Millisecond)
	ups := 0
	for _, m := range r.server {
		if _, ok := m.(*packet.ServerData); ok {
			ups++
		}
	}
	if ups != 1 {
		t.Errorf("server received %d copies, want exactly 1 (single path)", ups)
	}
	if r.bridge.UplinkPackets != 1 {
		t.Errorf("bridge uplink count = %d", r.bridge.UplinkPackets)
	}
}

func TestReleasedAPDropsQueue(t *testing.T) {
	r := newRig(t, 2)
	r.aps[0].ForceAssociate(r.cli.Addr, r.cli.IP)
	r.run(2 * sim.Millisecond)
	// Queue a backlog at AP0, then move the client to AP1.
	for i := 0; i < 50; i++ {
		r.bh.Send(nodeBridge, nodeAP0, &packet.DownlinkData{
			Client: r.cli.Addr,
			Inner:  packet.Packet{Dst: r.cli.IP, Proto: packet.ProtoUDP, IPID: uint16(i), PayloadLen: 1000},
		})
	}
	r.aps[1].ForceAssociate(r.cli.Addr, r.cli.IP)
	r.run(20 * sim.Millisecond)
	if got := r.aps[0].Backlog(r.cli.Addr); got != 0 {
		t.Errorf("released AP retains %d queued packets", got)
	}
}
