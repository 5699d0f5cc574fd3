package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"wgtt/internal/core"
	"wgtt/internal/deploy"
	"wgtt/internal/mobility"
	"wgtt/internal/rf"
	"wgtt/internal/sim"
)

// Compiled is a bulk-downlink ride in the simulator's native terms: a
// core.Config, the run horizon, and one trajectory/workload/start plan
// per client. It is the only ride description the root package builds
// (BuildScenarioRun): Compile lowers a scenario file to one, and the
// experiments whose rides the schema cannot express build theirs in Go.
// Compile is a pure function of (Scenario, seed, mutate) — no clock, no
// ambient randomness — so the same inputs always produce the
// bit-identical Compiled, which Digest checks.
type Compiled struct {
	// Name is the scenario name (reports, digests).
	Name string
	// Config is the configuration the ride builds: the file's settings,
	// then Compile's mutate. A caller may still set execution-mode knobs
	// (Domains, Telemetry, datapath overrides) on it before the build;
	// they leave the road, and so the lowered routes, as they are.
	Config core.Config
	// Horizon is the simulated run length: the scenario's explicit
	// horizon, or the latest route-run completion time.
	Horizon sim.Duration
	// Clients are the client plans in deterministic construction order
	// (population order, then index within the population).
	Clients []ClientPlan

	// APsPerSegment is Config's uniform per-segment AP count for reports
	// (0 when segments differ).
	APsPerSegment int
	// SpeedMPH is the first route's cruise speed in mph for reports
	// (0 when the route is specified in m/s).
	SpeedMPH float64
}

// ClientPlan is one client's compiled trajectory and workload.
type ClientPlan struct {
	// Route names the route the client rides.
	Route string
	// Traj is the client's trajectory over the whole horizon.
	Traj mobility.Trajectory
	// Workload is the attached traffic (udp | tcp | none).
	Workload Workload
	// RateMbps is the UDP offered load.
	RateMbps float64
	// Start is when the workload starts (offset from run start).
	Start sim.Duration
}

// Compile validates the scenario and lowers it. seed 0 defers to the
// scenario's seed (itself defaulting to 1); a non-zero seed overrides,
// which is how the golden tests sweep seeds over one checked-in file.
//
// mutate, when non-nil, edits the config before the routes are lowered,
// so a mutate that reshapes the road (more segments, another pitch)
// gets trajectories and a horizon that cross the reshaped road. The
// result is validated after it.
func Compile(s *Scenario, seed int64, mutate func(*core.Config)) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	scheme, _ := s.scheme() // Validate checked it
	cfg := core.DefaultConfig(scheme)
	if seed == 0 {
		seed = s.Seed
	}
	if seed == 0 {
		seed = 1
	}
	cfg.Seed = seed
	if s.Road.Spacing != 0 {
		cfg.APSpacing = s.Road.Spacing
	}
	if s.Road.Setback != 0 {
		cfg.APSetback = s.Road.Setback
	}
	if s.Road.FirstAPX != 0 {
		cfg.FirstAPX = s.Road.FirstAPX
	}
	cfg.Segments = s.segmentSpecs()
	cfg.ChannelBackend = s.Channel
	if s.Federation || s.RingTrunk {
		cfg.Federation.Enabled = true
	}
	if s.RingTrunk {
		cfg.Federation.Ring = true
	}
	if mutate != nil {
		mutate(&cfg)
	}

	c := &Compiled{Name: s.Name, Config: cfg}
	c.APsPerSegment = uniformAPs(&cfg)
	c.SpeedMPH = s.Routes[0].MPH

	lo, hi := cfg.RoadSpanX()
	// Horizon: explicit, or the latest run completion over every route's
	// full timetable (so even unridden runs finish on screen).
	if s.Horizon > 0 {
		c.Horizon = s.Horizon.D()
	} else {
		for i := range s.Routes {
			r := &s.Routes[i]
			for _, dep := range r.departures() {
				run := buildRun(r, dep, 0, lo, hi)
				if run.end > c.Horizon {
					c.Horizon = run.end
				}
			}
		}
	}

	for gi := range s.Clients {
		p := &s.Clients[gi]
		r := s.route(p.Route)
		dep := r.departures()[p.Departure]
		count := p.Count
		if count == 0 {
			count = 1
		}
		gap := p.Gap
		if gap == 0 {
			gap = mobility.FollowGap
		}
		workload := p.Workload
		if workload == "" {
			workload = WorkloadUDP
		}
		rate := p.RateMbps
		if rate == 0 {
			rate = DefaultRateMbps
		}
		// The workload default-starts a warmup after the run departs —
		// pushing traffic at a vehicle still parked outside coverage
		// burns floor-MCS airtime and starves its neighbours. An
		// explicit start in the file wins (pre-departure traffic is a
		// legitimate thing to model; it just shouldn't be the default).
		start := p.Start.D()
		if start == 0 {
			start = dep + DefaultWarmup
		}
		rides := r.stopCount() > 0 && (p.Board != nil || p.Alight != nil)
		for i := 0; i < count; i++ {
			var traj mobility.Trajectory
			if rides {
				// Boarding/alighting riders share the vehicle; the
				// follow gap is a platoon concept and does not apply.
				run := buildRun(r, dep, 0, lo, hi)
				traj = riderTraj(run, p.Board, p.Alight)
			} else if r.stopCount() > 0 {
				run := buildRun(r, dep, 0, lo, hi)
				traj = run.traj
			} else {
				run := buildRun(r, dep, gap*float64(i), lo, hi)
				traj = run.traj
			}
			c.Clients = append(c.Clients, ClientPlan{
				Route:    r.Name,
				Traj:     traj,
				Workload: workload,
				RateMbps: rate,
				Start:    start,
			})
		}
	}
	if err := c.Config.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: compiled config invalid: %w", err)
	}
	return c, nil
}

// run is one route departure's compiled motion: the vehicle trajectory,
// its completion time, and (for stop-bearing routes) the waypoint
// timeline riders slice.
type run struct {
	traj mobility.Trajectory
	end  sim.Duration
	// pts is the waypoint timeline (nil for the pure-Linear fast path,
	// which stop-free routes with departure 0 take).
	pts []mobility.Waypoint
	// stopArrive[i] is when the vehicle reaches stop i.
	stopArrive []sim.Duration
}

// buildRun compiles one departure of a route. followOffset shifts the
// start back along the direction of travel (platoon spacing); lo, hi is
// the road span in x.
func buildRun(r *Route, dep sim.Duration, followOffset float64, lo, hi float64) run {
	leadIn := r.leadIn()
	stops := r.stopPositions(lo, hi)

	// Fast path: a stop-free forward route departing at 0 is a
	// constant-velocity drive, Crossing's floats for the near lane and
	// the default lead-in.
	if dep == 0 && len(stops) == 0 && !r.Reverse && r.UTurnAt == nil {
		traj := mobility.Linear{Start: rf.Position{X: lo - leadIn - followOffset, Y: r.Lane}, VelX: r.speedMps()}
		return run{traj: traj, end: crossingTime(lo, hi, leadIn, traj)}
	}

	v := r.speedMps()
	dir := 1.0
	startX := lo - leadIn - followOffset
	endX := hi + leadIn
	if r.Reverse {
		dir = -1.0
		startX = hi + leadIn + followOffset
		endX = lo - leadIn
	}

	t := dep
	x := startX
	pts := []mobility.Waypoint{{At: t, Pos: rf.Position{X: x, Y: r.Lane}}}
	moveTo := func(nx float64) {
		d := (nx - x) * dir
		if d <= 0 {
			return
		}
		t += sim.Duration(float64(sim.Second) * d / v)
		x = nx
		pts = append(pts, mobility.Waypoint{At: t, Pos: rf.Position{X: x, Y: r.Lane}})
	}

	var arrive []sim.Duration
	switch {
	case r.UTurnAt != nil:
		moveTo(*r.UTurnAt)
		dir = -dir
		moveTo(startX)
	default:
		for _, sx := range stops {
			moveTo(sx)
			arrive = append(arrive, t)
			if r.Dwell > 0 {
				t += r.Dwell.D()
				pts = append(pts, mobility.Waypoint{At: t, Pos: rf.Position{X: x, Y: r.Lane}})
			}
		}
		moveTo(endX)
	}
	return run{traj: mobility.NewWaypoints(pts), end: t, pts: pts, stopArrive: arrive}
}

// Crossing is the drive across cfg's whole road at mph: a
// constant-velocity trajectory in the near lane entering DefaultLeadIn
// before the first AP, and the time it takes to leave DefaultLeadIn past
// the last one. A stop-free route departing at 0 compiles onto the same
// floats.
func Crossing(cfg *core.Config, mph float64) (mobility.Linear, sim.Duration) {
	lo, hi := cfg.RoadSpanX()
	traj := mobility.Drive(lo-DefaultLeadIn, 0, mph)
	return traj, crossingTime(lo, hi, DefaultLeadIn, traj)
}

// crossingTime is how long traj takes from leadIn before lo to leadIn
// past hi.
func crossingTime(lo, hi, leadIn float64, traj mobility.Linear) sim.Duration {
	dist := (hi + leadIn) - (lo - leadIn)
	secs := dist / traj.SpeedMps()
	return sim.Duration(secs * float64(sim.Second))
}

// riderTraj slices the vehicle timeline into one rider's trajectory:
// wait at the boarding stop (the Waypoints clamp before the first point),
// ride the vehicle between the stops, and remain where they alighted
// (the clamp after the last point). nil board rides from the route
// start; nil alight rides to the end.
func riderTraj(vehicle run, board, alight *int) mobility.Trajectory {
	from := vehicle.pts[0].At
	if board != nil {
		from = vehicle.stopArrive[*board]
	}
	to := vehicle.pts[len(vehicle.pts)-1].At
	if alight != nil {
		to = vehicle.stopArrive[*alight]
	}
	var pts []mobility.Waypoint
	for _, p := range vehicle.pts {
		if p.At >= from && p.At <= to {
			pts = append(pts, p)
		}
	}
	return mobility.NewWaypoints(pts)
}

// stopPositions resolves the route's stop x positions in driving order.
func (r *Route) stopPositions(lo, hi float64) []float64 {
	if len(r.StopsAt) > 0 {
		return r.StopsAt
	}
	return mobility.RouteStops(lo, hi, r.Stops)
}

// segmentSpecs lowers the road's segments to deploy specs.
func (s *Scenario) segmentSpecs() []deploy.SegmentSpec {
	specs := make([]deploy.SegmentSpec, len(s.Road.Segments))
	for i, seg := range s.Road.Segments {
		specs[i] = deploy.SegmentSpec{
			NumAPs:    seg.APs,
			APSpacing: seg.Spacing,
			APSetback: seg.Setback,
			Gap:       seg.Gap,
		}
	}
	return specs
}

// roadSpan is the road's x span under the scenario's geometry defaults
// (the same resolution core.Config.RoadSpanX performs after compile).
func (s *Scenario) roadSpan() (lo, hi float64) {
	if len(s.Road.Segments) == 0 {
		return 0, 0
	}
	def := core.DefaultConfig(core.WGTT)
	spacing := s.Road.Spacing
	if spacing == 0 {
		spacing = def.APSpacing
	}
	setback := s.Road.Setback
	if setback == 0 {
		setback = def.APSetback
	}
	geoms := deploy.Resolve(s.segmentSpecs(), s.Road.FirstAPX, spacing, setback)
	last := geoms[len(geoms)-1]
	return geoms[0].FirstAPX, last.FirstAPX + float64(last.NumAPs-1)*last.APSpacing
}

// uniformAPs is cfg's shared per-segment AP count, or 0 when mixed.
func uniformAPs(cfg *core.Config) int {
	if len(cfg.Segments) == 0 {
		return cfg.NumAPs
	}
	n := cfg.Segments[0].NumAPs
	for _, s := range cfg.Segments[1:] {
		if s.NumAPs != n {
			return 0
		}
	}
	return n
}

// mphToMps converts miles per hour to meters per second.
func mphToMps(mph float64) float64 { return mobility.MPHToMps(mph) }

// Digest is a stable content hash of the compiled scenario: the full
// Config, the horizon, and every client plan (trajectory included).
// Two compiles agree on the digest iff they would run bit-identically,
// which is what the CI determinism gate checks.
func (c *Compiled) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%#v\n%d\n", c.Name, c.Config, c.Horizon)
	for _, p := range c.Clients {
		fmt.Fprintf(h, "%s %d %s %g %#v\n", p.Route, p.Start, p.Workload, p.RateMbps, p.Traj)
	}
	return hex.EncodeToString(h.Sum(nil))
}
