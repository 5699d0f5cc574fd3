package wgtt

import (
	"fmt"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/scenario"
)

// boundaryRide is the corridor ride with the boundary-interference
// exchange on, returning the rendered result plus the exchange counters.
func boundaryRide(seed int64, mode core.DomainMode) (rendered string, posted, applied int) {
	const (
		segments = 3
		apsPer   = 4
		clients  = 2
		mph      = 25.0
	)
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = seed
	for i := 0; i < segments; i++ {
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: apsPer})
	}
	cfg.Domains = mode
	cfg.BoundaryInterference = true
	n := NewNetwork(cfg)
	_, dur := scenario.Crossing(&cfg, mph)
	lo, _ := cfg.RoadSpanX()
	var meters []*throughput
	for _, traj := range Scenario(Following, clients, lo-5, 0, mph) {
		c := n.AddClient(traj)
		f := NewUDPDownlink(n, c, scenario.DefaultRateMbps)
		startAfterWarmup(n, f.Start)
		meters = append(meters, f.Meter)
	}
	n.Run(dur)
	res := CorridorResult{Segments: segments, APsPerSegment: apsPer, SpeedMPH: mph}
	for _, m := range meters {
		res.PerClientMbps = append(res.PerClientMbps, m.MeanMbps(n.Loop.Now()))
	}
	res.MeanMbps = mean(res.PerClientMbps)
	posted, applied = n.BoundaryInterferenceStats()
	return render(res), posted, applied
}

// TestBoundaryInterferenceParity pins the cross-domain interference
// exchange: with the feature on, DomainsSerial and DomainsParallel must
// stay bit-identical to each other (the exchange rides the same
// conservative mailboxes as all other cross-domain traffic), and the
// exchange must actually fire — boundary-zone transmissions posted to
// neighbours and remote interference applied to deliveries.
func TestBoundaryInterferenceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corridor rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			serial, sPosted, sApplied := boundaryRide(seed, core.DomainsSerial)
			parallel, pPosted, pApplied := boundaryRide(seed, core.DomainsParallel)
			if serial != parallel {
				t.Errorf("parallel domains diverged from serial domains\n%s",
					firstDiff(serial, parallel))
			}
			if sPosted != pPosted || sApplied != pApplied {
				t.Errorf("exchange counters diverged: serial posted=%d applied=%d, parallel posted=%d applied=%d",
					sPosted, sApplied, pPosted, pApplied)
			}
			if sPosted == 0 {
				t.Error("no boundary-zone transmissions were exported; the exchange never fired")
			}
			if sApplied == 0 {
				t.Error("no delivery saw remote interference; the penalty path never fired")
			}
		})
	}
}

// TestBoundaryInterferenceOffIsInert pins the default-off contract: a
// domain ride without the knob reports zero exchange activity.
func TestBoundaryInterferenceOffIsInert(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	for i := 0; i < 2; i++ {
		cfg.Segments = append(cfg.Segments, SegmentSpec{NumAPs: 2})
	}
	cfg.Domains = core.DomainsSerial
	n := NewNetwork(cfg)
	c := n.AddClient(Stationary{X: 5, Y: 0})
	f := NewUDPDownlink(n, c, 5)
	startAfterWarmup(n, f.Start)
	n.Run(2 * Second)
	if posted, applied := n.BoundaryInterferenceStats(); posted != 0 || applied != 0 {
		t.Errorf("exchange active with BoundaryInterference off: posted=%d applied=%d", posted, applied)
	}
}

// TestBoundaryInterferenceValidation pins the knob's configuration
// contract: it needs domain execution and at least two segments.
func TestBoundaryInterferenceValidation(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.BoundaryInterference = true
	if err := cfg.Validate(); err == nil {
		t.Error("single-loop + BoundaryInterference validated; want error")
	}
	cfg.Segments = []SegmentSpec{{NumAPs: 2}, {NumAPs: 2}}
	cfg.Domains = core.DomainsParallel
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid boundary-interference config rejected: %v", err)
	}
	cfg.BoundaryZoneM = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative BoundaryZoneM validated; want error")
	}
}
