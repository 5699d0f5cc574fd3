package core

import (
	"testing"

	"wgtt/internal/deploy"
	"wgtt/internal/mac"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

// crowdedNet builds two 8-AP segments on one medium under 16 vehicles in
// alternating lanes at 25 mph, every fourth with a 30 Mbit/s UDP
// downlink that starts after 100 ms.
func crowdedNet(backend string) *Network {
	cfg := DefaultConfig(WGTT)
	cfg.Seed = 5
	cfg.ChannelBackend = backend
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 8}, {NumAPs: 8}}
	n := MustNewNetwork(cfg)
	lo, hi := cfg.RoadSpanX()
	span := hi - lo + 10
	const vehicles = 16
	for i := 0; i < vehicles; i++ {
		c := n.AddClient(mobility.Drive(lo-5+span*float64(i)/vehicles, float64(i%2)*-3, 25))
		if i%4 == 2 {
			src, _ := udpDownlink(n, c, 30)
			n.Loop.After(100*sim.Millisecond, src.Start)
		}
	}
	return n
}

// TestSenseBoundDominatesSense checks the wiring of netChannel's
// SenseBoundDB, which the medium trusts before the exact SenseSNRdB:
// over a crowded ride, at every millisecond, for every AP↔client pair in
// both directions, the bound is at least the exact value (a swapped index
// or position fails here), and client↔client and AP↔AP pairs report no
// bound.
func TestSenseBoundDominatesSense(t *testing.T) {
	if testing.Short() {
		t.Skip("checks every AP↔client pair every millisecond of two rides")
	}
	for _, backend := range []string{"wifi5g", "mmwave60g"} {
		t.Run(backend, func(t *testing.T) {
			n := crowdedNet(backend)
			nc := &netChannel{n: n, loop: n.Loop}
			checked := 0
			for ms := 1; ms <= 1000; ms++ {
				n.Run(sim.Duration(ms) * sim.Millisecond)
				for _, a := range n.apNodes {
					for _, c := range n.Clients {
						for _, p := range [2][2]*mac.Node{{a, c.Node()}, {c.Node(), a}} {
							bound, ok := nc.SenseBoundDB(p[0], p[1])
							exact := nc.SenseSNRdB(p[0], p[1])
							if !ok || bound < exact {
								t.Fatalf("t=%v %s→%s: bound %v (ok %v) < exact %v",
									n.Loop.Now(), p[0].Name, p[1].Name, bound, ok, exact)
							}
							checked++
						}
					}
				}
			}
			if _, ok := nc.SenseBoundDB(n.apNodes[0], n.apNodes[1]); ok {
				t.Error("AP↔AP pair reports a bound")
			}
			if _, ok := nc.SenseBoundDB(n.Clients[0].Node(), n.Clients[1].Node()); ok {
				t.Error("client↔client pair reports a bound")
			}
			t.Logf("%d AP↔client checks", checked)
		})
	}
}

var senseSink float64

// TestSenseSNRAllocFree pins the sense path allocation-free on a
// multi-segment deployment, for an AP↔AP pair across segments and an
// AP↔client pair both ways: the medium calls it for every receiver and
// every overlapping transmission.
func TestSenseSNRAllocFree(t *testing.T) {
	cfg := DefaultConfig(WGTT)
	cfg.Segments = []deploy.SegmentSpec{{NumAPs: 4}, {NumAPs: 4}}
	n := MustNewNetwork(cfg)
	cli := n.AddClient(mobility.Drive(0, 0, 25)).Node()
	nc := &netChannel{n: n, loop: n.Loop}
	for _, c := range []struct {
		name   string
		tx, rx *mac.Node
	}{
		{"ap-ap", n.apNodes[3], n.apNodes[4]},
		{"ap-client", n.apNodes[1], cli},
		{"client-ap", cli, n.apNodes[1]},
	} {
		if allocs := testing.AllocsPerRun(100, func() { senseSink = nc.SenseSNRdB(c.tx, c.rx) }); allocs != 0 {
			t.Errorf("%s: SenseSNRdB allocates %v objects per call, want 0", c.name, allocs)
		}
	}
}
