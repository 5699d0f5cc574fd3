package wgtt

import (
	"fmt"
	"testing"

	"wgtt/internal/core"
)

// goldenDomains pins the three-segment corridor split into one domain
// per segment, in TestSingleLoopPins' format: the figure (%#v), the
// MetricsText snapshot and the text dump of the stitched flight
// records, each as the first 16 bytes of its SHA-256. Serial and
// parallel coordinator rounds must both match the seed's triple. Parity
// tests compare two split-shape runs of the same build; these pin the
// split shape's figures, counters and switch-protocol records
// themselves.
var goldenDomains = map[int64]string{
	1: "figure=f6d20b53c60046d5489a6c7550b94ad7 metrics=6ea28a38967922b5822d124ff03931f9 trace=8e99d8568ebf5a5e5698d4da4573e22d",
	2: "figure=ff58672d037bf689ba93b4f02cf967a9 metrics=a52236d867af46a20ffe78f72c7b41db trace=61e5df2fb19dee0747fb5e6716313acd",
	3: "figure=43a93d1d5f5e6758bf0b84c032c5e4af metrics=e632b8fc8c8e4b7d6c24ae49b51203ae trace=d17c56b47ea4af6aa9d301ced10d5c80",
}

// TestDomainPins rides the split-shape corridor at seeds 1–3 under both
// domain executors, with telemetry and the flight recorder on, and
// compares the digests of its figure, metrics and flight records.
func TestDomainPins(t *testing.T) {
	if testing.Short() {
		t.Skip("six end-to-end corridor rides")
	}
	modes := []struct {
		name string
		mode core.DomainMode
	}{{"domains-serial", core.DomainsSerial}, {"domains-parallel", core.DomainsParallel}}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: seed, Mutate: func(c *Config) {
				c.Telemetry = true
				c.FlightRecorder = flightRecCap
			}}
			for _, m := range modes {
				r := corridorSetup(opt, m.mode, 3, 0)
				r.Net.Run(r.Dur)
				fig := fmt.Sprintf("%#v", r.Figures(nil))
				got := pinDigests(t, fig, r.Net)
				if want := goldenDomains[seed]; got != want {
					t.Errorf("%s drifted (figure %s)\n  want %s\n  got  %s", m.name, fig, want, got)
				}
			}
		})
	}
}
