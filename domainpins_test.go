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

// goldenShuttle pins wgtt-serve's "shuttle" scenario (two vehicles
// bouncing inside their home segments of the three-segment road) in
// the same format, one triple per seed for both domain executors.
var goldenShuttle = map[int64]string{
	1: "figure=f45c72e8cd0f06b5e18a4d904246c280 metrics=47a2abcc8d586311e7e8eca50159988c trace=eb9f1cdf784906d21feb91470ae9201c",
	2: "figure=9cf9a51b9fbc51a8d9258a17ccde31c9 metrics=dacb2b76703a1d9692d4d477c3244d78 trace=9070b025546890cc46140768187c4d76",
	3: "figure=f2f3bd0199ca793f4d7d452fffdb0289 metrics=4124bb19a166d665a2496defc847c673 trace=c0d83c9f0fbb9c5a4a83ccfd4aca6efb",
}

// TestDomainPins rides the split-shape corridor and wgtt-serve's
// shuttle at seeds 1–3 under both domain executors, with telemetry and
// the flight recorder on, and compares the digests of their figures,
// metrics and flight records.
func TestDomainPins(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve end-to-end corridor and shuttle rides")
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

				mode := m.mode
				s, err := BuildServeScenario("shuttle", Options{Seed: seed, Mutate: func(c *Config) {
					opt.Mutate(c)
					c.Domains = mode
				}})
				if err != nil {
					t.Fatal(err)
				}
				s.Net.Run(s.Dur)
				fig = fmt.Sprintf("%#v", s.Figures(nil))
				got = pinDigests(t, fig, s.Net)
				if want := goldenShuttle[seed]; got != want {
					t.Errorf("shuttle %s drifted (figure %s)\n  want %s\n  got  %s", m.name, fig, want, got)
				}
			}
		})
	}
}
