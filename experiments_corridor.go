package wgtt

import (
	_ "embed"
	"fmt"

	"wgtt/internal/core"
	"wgtt/internal/rf"
	"wgtt/internal/scenario"
)

// posXY builds a waypoint position.
func posXY(x, y float64) rf.Position { return rf.Position{X: x, Y: y} }

// corridorYAML is the library's corridor: three 4-AP segments, two
// following clients at 25 mph under saturating UDP.
//
//go:embed examples/scenarios/corridor.yaml
var corridorYAML []byte

// CorridorResult is the transit-corridor scenario at deployment scale:
// two vehicles riding the full length of a three-segment roadway under
// WGTT with saturating UDP downlink. It is the workload the per-segment
// domain execution (-parallel-segments) is built for, and the fixture the
// domain parity tests pin.
type CorridorResult struct {
	Segments      int
	APsPerSegment int
	SpeedMPH      float64
	PerClientMbps []float64
	MeanMbps      float64
}

// CorridorThroughput rides two following clients at 25 mph across a
// three-segment corridor (4 APs per segment at the paper's 7.5 m pitch)
// and reports per-client UDP goodput. With Options.ParallelSegments the
// segments execute as parallel event-loop domains; otherwise the ride
// runs as one domain on one event loop.
func CorridorThroughput(opt Options) CorridorResult {
	mode := core.SingleLoop
	if opt.ParallelSegments {
		mode = core.DomainsParallel
	}
	return corridorRide(opt, mode)
}

// corridorRide is the mode-explicit form the domain parity tests drive:
// DomainsSerial and DomainsParallel must render bit-identically.
func corridorRide(opt Options, mode core.DomainMode) CorridorResult {
	return corridorRideN(opt, mode, 3, 0)
}

// corridorPlan compiles the embedded corridor.yaml stretched (or cut)
// to the given number of segments of its first segment's shape, under
// domain mode, then the caller's Mutate — all before the routes are
// lowered, so the clients cross the whole road the Mutate leaves. Seed 0
// is a seed here, not a request for the file's. The error is the
// Mutate's: the embedded file itself always compiles. It is the single
// construction path shared by the in-process corridor rides and
// wgtt-serve's "corridor" scenario, so a partitioned multi-process run
// builds the bit-identical network the parity pins reference.
func corridorPlan(opt Options, mode core.DomainMode, segments int) (*CompiledScenario, error) {
	s, err := ParseScenario(corridorYAML)
	if err != nil {
		return nil, err
	}
	return scenario.Compile(s, 0, func(c *Config) {
		c.Seed = opt.Seed
		seg := c.Segments[0]
		c.Segments = nil
		for i := 0; i < segments; i++ {
			c.Segments = append(c.Segments, seg)
		}
		c.Domains = mode
		if opt.Mutate != nil {
			opt.Mutate(c)
		}
	})
}

// corridorSetup constructs the corridor ride without running it: the
// compiled corridorPlan with its horizon capped at maxDur (0 = ride the
// whole road). An invalid config panics, as NewNetwork does.
func corridorSetup(opt Options, mode core.DomainMode, segments int, maxDur Duration) *ServeRun {
	c, err := corridorPlan(opt, mode, segments)
	if err != nil {
		panic(err)
	}
	if maxDur > 0 && c.Horizon > maxDur {
		c.Horizon = maxDur
	}
	return BuildScenarioRun(c)
}

// corridorRideN is the ride at an arbitrary corridor length; the domain
// benchmark uses it to scale the domain count past the core count. A
// zero maxDur rides the full corridor; a positive one caps the sim time
// (a long corridor is then only partially ridden, which is fine for
// timing — every domain still advances through the whole window).
func corridorRideN(opt Options, mode core.DomainMode, segments int, maxDur Duration) CorridorResult {
	r := corridorSetup(opt, mode, segments, maxDur)
	r.Net.Run(r.Dur)
	return corridorResult(r)
}

// corridorResult summarizes a finished corridor-shaped ride.
func corridorResult(r *ServeRun) CorridorResult {
	per := r.goodputs()
	return CorridorResult{
		Segments: len(r.Cfg.Segments), APsPerSegment: r.APsPerSegment, SpeedMPH: r.SpeedMPH,
		PerClientMbps: per, MeanMbps: mean(per),
	}
}

// CorridorFedResult is the federated corridor under trunk faults: the
// ride summary plus the re-locate protocol's scoreboard.
type CorridorFedResult struct {
	CorridorResult
	Relocates   int
	Abandoned   int
	OutageDrops int64
	RandomDrops int64
	Lost        int
}

// CorridorFederated rides a four-segment ring-federated corridor with a
// canned trunk fault schedule: one client drives straight through while
// a second U-turns mid-corridor, and an interior trunk blacks out for
// two seconds on top of random trunk drops and delay jitter. The ride
// exercises the whole recovery surface — directory re-locates, claim and
// export retries, routing around the downed trunk — and reports whether
// every client came out owned.
func CorridorFederated(opt Options) CorridorFedResult {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = opt.Seed
	cfg.Segments = []SegmentSpec{{NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}, {NumAPs: 4}}
	cfg.Federation.Enabled = true
	cfg.Federation.Ring = true
	cfg.Trunk.Faults = FaultSchedule{
		Outages:   []Outage{{A: 1, B: 2, Start: 2 * Second, End: 4 * Second}},
		DropProb:  0.02,
		JitterMax: 40 * Microsecond,
	}
	if opt.ParallelSegments {
		cfg.Domains = core.DomainsParallel
	}
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	p := downlinkPlan(cfg, 10*Second, scenario.WorkloadUDP, scenario.DefaultRateMbps,
		Drive(-scenario.DefaultLeadIn, 0, 25),
		NewWaypoints([]Waypoint{
			{At: 0, Pos: posXY(10, 0)},
			{At: 4 * Second, Pos: posXY(75, 0)},
			{At: 9 * Second, Pos: posXY(12, 0)},
		}))
	p.APsPerSegment, p.SpeedMPH = 4, 25
	r := BuildScenarioRun(p)
	n := r.Net
	n.Run(r.Dur)

	res := CorridorFedResult{CorridorResult: corridorResult(r)}
	for _, f := range n.FederationNodes() {
		res.Relocates += f.Relocates
		res.Abandoned += f.RelocatesAbandoned
	}
	res.OutageDrops, res.RandomDrops = n.TrunkFaultDrops()
	res.Lost = len(n.LostClients())
	return res
}

// String renders the federated ride summary.
func (r CorridorFedResult) String() string {
	return r.CorridorResult.String() + fmt.Sprintf(
		"federation: %d re-locates (%d abandoned); trunk drops: %d outage, %d random; lost clients: %d\n",
		r.Relocates, r.Abandoned, r.OutageDrops, r.RandomDrops, r.Lost)
}

// String renders the ride summary.
func (r CorridorResult) String() string {
	rows := make([][]string, 0, len(r.PerClientMbps)+1)
	for i, v := range r.PerClientMbps {
		rows = append(rows, []string{fmt.Sprintf("client %d", i+1), f1(v)})
	}
	rows = append(rows, []string{"mean", f1(r.MeanMbps)})
	return fmt.Sprintf("Corridor — %d segments × %d APs, %g mph, UDP downlink\n",
		r.Segments, r.APsPerSegment, r.SpeedMPH) + fmtTable([]string{"", "Mbit/s"}, rows)
}
