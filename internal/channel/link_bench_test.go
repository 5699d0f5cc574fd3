package channel

import (
	"testing"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// BenchmarkNewLink is one link as a network builds it per client×AP
// pair: the link's fork of the network stream, then Model.NewLink, which
// forks the realizations' streams and draws nothing from them. Its
// bytes/op are deterministic, and scripts/ci.sh gates wifi5g's.
func BenchmarkNewLink(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  ModelConfig
	}{{"wifi5g", wifiCfg()}, {"mmwave60g", mmCfg()}} {
		b.Run(c.name, func(b *testing.B) {
			m, err := New(c.name, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(1)
			apPos := rf.Position{X: 5, Y: 3}
			b.ReportAllocs()
			for range b.N {
				m.NewLink(apPos, rng.Fork("link"))
			}
		})
	}
}

// BenchmarkLinkFirstUse is a fresh link's first MeanSNRdB and first fill,
// which draw its realizations: shadowing (and on mmwave60g the blockage
// schedule), then fading. Links are built in batches with the timer
// stopped, so allocs/op counts only the draws and memory stays bounded;
// scripts/ci.sh gates wifi5g's.
func BenchmarkLinkFirstUse(b *testing.B) {
	for _, name := range []string{"wifi5g", "mmwave60g"} {
		b.Run(name, func(b *testing.B) {
			m := testModel(b, name)
			rng := sim.NewRNG(1)
			apPos := rf.Position{X: 5, Y: 3}
			pos := rf.Position{X: 9, Y: 0.5}
			var dst [rf.NumSubcarriers]float64
			links := make([]Link, 0, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(links) == 0 {
					b.StopTimer()
					for range min(cap(links), b.N-i) {
						links = append(links, m.NewLink(apPos, rng.Fork("link")))
					}
					b.StartTimer()
				}
				l := links[len(links)-1]
				links = links[:len(links)-1]
				l.FillSubcarrierSNRsDB(0, pos, l.MeanSNRdB(0, pos), dst[:])
			}
		})
	}
}
