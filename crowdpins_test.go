package wgtt

import (
	"fmt"
	"testing"

	"wgtt/internal/scenario"
)

// goldenCrowd pins a crowded shared medium at seeds 1–3, in
// TestSingleLoopPins' format: the figure (%#v), the MetricsText snapshot
// and the text dump of the stitched flight records, each as the first 16
// bytes of its SHA-256. The one-domain ride puts every vehicle and AP on
// one medium, where carrier sense and collision checks run against
// dozens of overlapping transmissions; the split ride gives each segment
// a medium of its own, and DomainsSerial and DomainsParallel must both
// match its triple.
var goldenCrowd = map[string]string{
	"seed1/one-domain": "figure=0bbcf6b42272d777385d88fcb3908a85 metrics=091bfe8f9c31f7f4497b92124689507a trace=89d492531fa862ca64a7f112e852f2af",
	"seed1/split":      "figure=c14ab64f14c59151d236a0786460df26 metrics=166cc912eda8aff8975c974bd4b8d069 trace=44f1b2e376988ea5da8e9d6c811f54f3",
	"seed2/one-domain": "figure=09a5e9be2f6953a87167d5ecc21f41d5 metrics=5b78a9816d22134054799ea4f93b8dce trace=fe72f5d6d79d87afeb4a6bea2cde303c",
	"seed2/split":      "figure=c81d9b30ab7b075350c8692b81c343ad metrics=81c6e7577063b95679c56fc69243f5e8 trace=dfa844c44d4e6e52d03534cb6278c6c3",
	"seed3/one-domain": "figure=220d626dc81f014bcd936686a9123e7e metrics=c6e10d944fb27c4cf81c0cb1335acd57 trace=b1f12e3f8029172d074e2fcce76753ff",
	"seed3/split":      "figure=b8e0f6a53bb5884002880271fc189e27 metrics=038c0602c04146260ff5ef6b5b299ae8 trace=b5314d1de2152bc9475d19ae77d7b5c1",
}

// Crowd shape: four 8-AP segments under 32 vehicles (the bench's crowd
// density, 0.13 vehicles/m), every fourth with a saturating UDP
// downlink.
const (
	crowdSegments  = 4
	crowdVehicles  = 32
	crowdFlowEvery = 4
)

// crowdRide rides the crowd shape for one simulated second at 25 mph in
// alternating lanes, with telemetry and the flight recorder on, and
// returns the flows' goodput.
func crowdRide(seed int64, mode DomainMode) (figure string, n *Network) {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = seed
	cfg.Telemetry = true
	cfg.FlightRecorder = flightRecCap
	cfg.Domains = mode
	for i := 0; i < crowdSegments; i++ {
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: cfg.NumAPs})
	}
	n = NewNetwork(cfg)
	lo, hi := cfg.RoadSpanX()
	span := hi - lo + 10
	var flows []*UDPDownlink
	for i := 0; i < crowdVehicles; i++ {
		c := n.AddClient(Drive(lo-5+span*float64(i)/crowdVehicles, float64(i%2)*-3, 25))
		if i%crowdFlowEvery == 2 {
			f := NewUDPDownlink(n, c, scenario.DefaultRateMbps)
			startAfterWarmup(n, f.Start)
			flows = append(flows, f)
		}
	}
	n.Run(Second)
	mbps := make([]float64, len(flows))
	for i, f := range flows {
		mbps[i] = f.Mbps(n.Loop.Now())
	}
	return fmt.Sprintf("%#v", mbps), n
}

// TestCrowdPins rides the crowd shape at seeds 1–3 on one domain and
// split under both domain executors, and compares the digests of its
// figure, metrics and flight records. The one-domain ride must see
// collisions, so the pin covers the medium's collision path.
func TestCrowdPins(t *testing.T) {
	if testing.Short() {
		t.Skip("nine crowded rides")
	}
	shapes := []struct {
		name, key string
		mode      DomainMode
	}{
		{"one-domain", "one-domain", SingleLoop},
		{"domains-serial", "split", DomainsSerial},
		{"domains-parallel", "split", DomainsParallel},
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, s := range shapes {
				fig, n := crowdRide(seed, s.mode)
				if n.Medium != nil && n.Medium.Stats().Collisions == 0 {
					t.Errorf("%s: no collisions on the shared medium", s.name)
				}
				got := pinDigests(t, fig, n)
				key := fmt.Sprintf("seed%d/%s", seed, s.key)
				if want := goldenCrowd[key]; got != want {
					t.Errorf("%s (%s) drifted (figure %s)\n  want %s\n  got  %s", key, s.name, fig, want, got)
				}
			}
		})
	}
}
