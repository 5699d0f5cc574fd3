package channel

import (
	"testing"

	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// BenchmarkNewLink is one link realization as a network builds it per
// client×AP pair: the link's fork of the network stream, then
// Model.NewLink. Its bytes/op are deterministic, and scripts/ci.sh gates
// wifi5g's.
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
