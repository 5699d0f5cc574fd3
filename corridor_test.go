package wgtt

import (
	"fmt"
	"strings"
	"testing"

	"wgtt/internal/core"
)

// goldenCorridor pins the three-segment corridor ride under domain
// execution for seeds 1–3, rendered with %#v for bit-level float
// round-tripping. The same string must come out of DomainsSerial and
// DomainsParallel: the conservative synchronization makes the two modes
// identical by construction, so any divergence is a lost or reordered
// event at a domain boundary. (The single-loop path is intentionally NOT
// pinned here — the partitioned medium and per-segment RNG streams make
// domain mode a different, equally valid realization.)
var goldenCorridor = map[int64]string{
	1: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{13.104030811961206, 10.297467993961924}, MeanMbps:11.700749402961565}`,
	2: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{10.911211988011358, 12.995001171705553}, MeanMbps:11.953106579858456}`,
	3: `wgtt.CorridorResult{Segments:3, APsPerSegment:4, SpeedMPH:25, PerClientMbps:[]float64{11.871300249322466, 11.586579175031673}, MeanMbps:11.72893971217707}`,
}

// TestCorridorDomainParity is the tentpole's end-to-end gate: the
// three-segment two-client ride must render bit-identically whether the
// segment domains execute round-robin on one goroutine (DomainsSerial)
// or spread over a goroutine pool (DomainsParallel), and both must match the
// golden pin per seed.
func TestCorridorDomainParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corridor rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			serial := render(corridorRide(Options{Seed: seed}, core.DomainsSerial))
			parallel := render(corridorRide(Options{Seed: seed}, core.DomainsParallel))
			if serial != parallel {
				t.Errorf("parallel domains diverged from serial domains\n%s",
					firstDiff(serial, parallel))
			}
			if serial != goldenCorridor[seed] {
				t.Errorf("corridor drifted\n%s",
					firstDiffLabeled("want", "got", goldenCorridor[seed], serial))
			}
		})
	}
}

// TestCorridorSingleSegmentFallback pins the API contract that keeps the
// golden figures safe: requesting domain execution on a single-segment
// deployment builds the one-domain shape, which keeps the shared medium,
// runs each Run as one coordinator round, and renders the 15 mph
// drive-by bit-identically to a plain single-loop build.
func TestCorridorSingleSegmentFallback(t *testing.T) {
	ride := func(mode core.DomainMode) (string, *Network) {
		return driveByUDP(Options{Seed: 1, Mutate: func(c *Config) { c.Domains = mode }}, SchemeWGTT, 15)
	}
	want, _ := ride(core.SingleLoop)
	got, n := ride(core.DomainsParallel)
	if names := n.DomainNames(); names != nil {
		t.Fatalf("single-segment deployment split into domains %v", names)
	}
	if n.Medium == nil {
		t.Fatal("single-segment fallback lost the shared medium")
	}
	if r := n.Coord.Rounds(); r != 1 {
		t.Errorf("one Run took %d coordinator rounds, want 1", r)
	}
	if got != want {
		t.Errorf("DomainsParallel drive-by %s, single loop %s", got, want)
	}
}

// TestCorridorRebuildDeterminism rebuilds the 24-segment corridor at
// seed 3 (domains serial, telemetry on, 10 simulated seconds) several
// times in one process and requires byte-identical metric snapshots.
// Map iteration order once leaked into the backhaul's AssocState
// broadcast, so rebuilds could deliver a trunk message in a different
// order.
func TestCorridorRebuildDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("several 24-segment rides")
	}
	const rebuilds = 12
	var first string
	for i := 0; i < rebuilds; i++ {
		r := corridorSetup(Options{Seed: 3, Mutate: telemetryOn}, core.DomainsSerial, 24, 10*Second)
		r.Net.Run(r.Dur)
		var sb strings.Builder
		if err := r.Net.MetricsSnapshot().Write(&sb, MetricsText); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
			continue
		}
		if got := sb.String(); got != first {
			t.Fatalf("rebuild %d differs from the first\n%s", i, firstDiffLabeled("first", "rebuild", first, got))
		}
	}
}

// stretchedCorridorDur and goldenStretchedCorridor pin wgtt-serve's
// "corridor" scenario stretched to 24 segments by a Mutate, the shape
// the benchmark's corridor workload rides: the scenario's Dur (the
// crossing of the whole stretched road, which holds only if the Mutate
// reaches the config before the route is lowered), and the figure and
// MetricsText digests of a min(Dur, 10 s) ride at seeds 1–3, in
// TestSingleLoopPins' format.
const stretchedCorridorDur = Duration(64647458840) // 64.647 s

var goldenStretchedCorridor = map[int64]string{
	1: "figure=1b25b999ef57217633b65ae825de68e8 metrics=49f3f415854713cc31e7420e40773034",
	2: "figure=adc30bebe5edb6aef7ddc241c4773889 metrics=67dde2e23f3f2c36ef99d7bdaa347ad1",
	3: "figure=d9299e5a7e95a5cdeac6f4d3f0dccf1c metrics=22b6603567b2a201469ffc8fe0ab2374",
}

// TestStretchedCorridorPins builds the stretched serve corridor at seeds
// 1–3 under DomainsSerial and checks its Dur and ride digests.
func TestStretchedCorridorPins(t *testing.T) {
	if testing.Short() {
		t.Skip("three 24-segment rides")
	}
	stretch := func(c *Config) {
		seg := c.Segments[0]
		c.Segments = nil
		for i := 0; i < 24; i++ {
			c.Segments = append(c.Segments, seg)
		}
		c.Domains = core.DomainsSerial
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r, err := BuildServeScenario("corridor", Options{Seed: seed, Mutate: stretch})
			if err != nil {
				t.Fatal(err)
			}
			if r.Dur != stretchedCorridorDur {
				t.Fatalf("Dur %v (%d ns), want %v", r.Dur, int64(r.Dur), stretchedCorridorDur)
			}
			r.Net.Run(min(r.Dur, 10*Second))
			fig := fmt.Sprintf("%#v", r.Figures(nil))
			var metrics strings.Builder
			if err := r.Net.MetricsSnapshot().Write(&metrics, MetricsText); err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("figure=%s metrics=%s", digest16(fig), digest16(metrics.String()))
			if want := goldenStretchedCorridor[seed]; got != want {
				t.Errorf("drifted (figure %s)\n  want %s\n  got  %s", fig, want, got)
			}
		})
	}
}
