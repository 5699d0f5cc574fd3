package scenario

import (
	"math"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
)

func mustParse(t *testing.T, in string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustCompile(t *testing.T, s *Scenario, seed int64) *Compiled {
	t.Helper()
	c, err := Compile(s, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const corridorYAML = `
name: corridor
road:
  segments:
    - aps: 4
    - aps: 4
    - aps: 4
routes:
  - name: bus
    mph: 25
clients:
  - route: bus
    count: 2
`

// TestCompileCorridorShape checks the corridor fast path reproduces
// mobility.Scenario's following platoon and Crossing exactly: the same
// Linear trajectories (same floats) and the same drive-across horizon.
func TestCompileCorridorShape(t *testing.T) {
	c := mustCompile(t, mustParse(t, corridorYAML), 1)
	if c.Config.Seed != 1 || len(c.Config.Segments) != 3 {
		t.Fatalf("config: seed=%d segments=%d", c.Config.Seed, len(c.Config.Segments))
	}
	if c.APsPerSegment != 4 || c.SpeedMPH != 25 {
		t.Errorf("report shape: aps=%d mph=%g", c.APsPerSegment, c.SpeedMPH)
	}
	lo, hi := c.Config.RoadSpanX()
	if lo != 0 || hi != 82.5 {
		t.Fatalf("road span [%g, %g], want [0, 82.5]", lo, hi)
	}
	if len(c.Clients) != 2 {
		t.Fatalf("%d clients, want 2", len(c.Clients))
	}
	// The experiments build mobility.Scenario(Following, 2, lo-5, 0, 25):
	// Drive(lo-5-3i). The compiled plans must be those exact values.
	want := mobility.Scenario(mobility.Following, 2, lo-5, 0, 25)
	for i, p := range c.Clients {
		if p.Traj != want[i].(mobility.Linear) {
			t.Errorf("client %d trajectory %#v, want %#v", i, p.Traj, want[i])
		}
		if p.Workload != WorkloadUDP || p.RateMbps != DefaultRateMbps || p.Start != DefaultWarmup {
			t.Errorf("client %d workload (%s, %g, %v), want defaults", i, p.Workload, p.RateMbps, p.Start)
		}
	}
	// Horizon = the drive-across duration of a 5 m lead-in each side.
	traj := mobility.Drive(lo-5, 0, 25)
	secs := ((hi + 5) - (lo - 5)) / traj.SpeedMps()
	if want := sim.Duration(secs * float64(sim.Second)); c.Horizon != want {
		t.Errorf("horizon %v, want %v", c.Horizon, want)
	}
	if ct, cd := Crossing(&c.Config, 25); ct != c.Clients[0].Traj || cd != c.Horizon {
		t.Errorf("Crossing = (%#v, %v), want the first client's (%#v, %v)", ct, cd, c.Clients[0].Traj, c.Horizon)
	}
}

// TestCompileMutateBeforeLowering: a mutate that reshapes the road
// reaches the config before the routes are lowered, so the horizon and
// trajectories cross the reshaped road, and the result is validated.
func TestCompileMutateBeforeLowering(t *testing.T) {
	stretch := func(c *core.Config) {
		c.Segments = append(c.Segments, c.Segments...)
	}
	c, err := Compile(mustParse(t, corridorYAML), 1, stretch)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Config.Segments) != 6 {
		t.Fatalf("%d segments, want 6", len(c.Config.Segments))
	}
	traj, dur := Crossing(&c.Config, 25)
	if c.Horizon != dur || c.Clients[0].Traj != traj {
		t.Errorf("horizon %v, first trajectory %#v; want the 6-segment crossing %v, %#v",
			c.Horizon, c.Clients[0].Traj, dur, traj)
	}
	if short := mustCompile(t, mustParse(t, corridorYAML), 1); c.Horizon <= short.Horizon {
		t.Errorf("stretched horizon %v not past the 3-segment one %v", c.Horizon, short.Horizon)
	}
	if _, err := Compile(mustParse(t, corridorYAML), 1, func(c *core.Config) { c.Segments[0].NumAPs = 0 }); err == nil {
		t.Error("a mutate that empties a segment compiled without error")
	}
	// The report shape follows the mutated road too.
	six, err := Compile(mustParse(t, corridorYAML), 1, func(c *core.Config) {
		for i := range c.Segments {
			c.Segments[i].NumAPs = 6
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if six.APsPerSegment != 6 {
		t.Errorf("APsPerSegment %d after a 6-AP mutate, want 6", six.APsPerSegment)
	}
}

// TestCompileRider checks boarding/alighting churn: the rider waits at
// the boarding stop, rides the vehicle, and remains at the alighting
// stop.
func TestCompileRider(t *testing.T) {
	c := mustCompile(t, mustParse(t, `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    stops-at: [10, 20]
    dwell: 1s
clients:
  - route: bus
    board: 0
    alight: 1
`), 1)
	traj := c.Clients[0].Traj
	if got := traj.Pos(0); got.X != 10 {
		t.Errorf("rider at t=0 sits at x=%g, want the boarding stop x=10", got.X)
	}
	if got := traj.Pos(sim.Time(c.Horizon) * 4); got.X != 20 {
		t.Errorf("rider after the run sits at x=%g, want the alighting stop x=20", got.X)
	}
	// Mid-dwell at the boarding stop the rider is still there.
	v := mobility.MPHToMps(25)
	arrive := sim.Duration(float64(sim.Second) * (10 - (-5)) / v)
	if got := traj.Pos(sim.Time(arrive) + sim.Time(500*sim.Millisecond)); got.X != 10 {
		t.Errorf("rider mid-dwell at x=%g, want 10", got.X)
	}
}

// TestCompileUTurn checks a U-turn run goes out and comes back.
func TestCompileUTurn(t *testing.T) {
	c := mustCompile(t, mustParse(t, `
road:
  segments:
    - aps: 4
  uturns: [15]
routes:
  - name: shuttle
    mph: 25
    uturn-at: 15
clients:
  - route: shuttle
`), 1)
	traj := c.Clients[0].Traj
	start := traj.Pos(0)
	if start.X != -5 {
		t.Fatalf("u-turn run starts at x=%g, want -5", start.X)
	}
	end := traj.Pos(sim.Time(c.Horizon) * 4)
	if end.X != start.X {
		t.Errorf("u-turn run ends at x=%g, want back at x=%g", end.X, start.X)
	}
	mid := traj.Pos(sim.Time(c.Horizon / 2))
	if mid.X <= start.X {
		t.Errorf("mid-run at x=%g, want past the start", mid.X)
	}
}

// TestCompileReverse checks a reverse route enters past the last AP
// driving -X.
func TestCompileReverse(t *testing.T) {
	c := mustCompile(t, mustParse(t, `
road:
  segments:
    - aps: 4
routes:
  - name: back
    mph: 25
    reverse: true
clients:
  - route: back
`), 1)
	traj := c.Clients[0].Traj
	if got := traj.Pos(0); got.X != 27.5 {
		t.Errorf("reverse run starts at x=%g, want 27.5", got.X)
	}
	late := traj.Pos(sim.Time(c.Horizon))
	if late.X != -5 {
		t.Errorf("reverse run ends at x=%g, want -5", late.X)
	}
}

// TestCompileTimetable checks a later departure waits at the route
// start until its slot.
func TestCompileTimetable(t *testing.T) {
	c := mustCompile(t, mustParse(t, `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    headway: 2s
    runs: 3
clients:
  - route: bus
    departure: 2
`), 1)
	traj := c.Clients[0].Traj
	if got := traj.Pos(sim.Time(3 * sim.Second)); got.X != -5 {
		t.Errorf("departure-2 run moving at t=3s (x=%g), want parked at -5 until t=4s", got.X)
	}
	if got := traj.Pos(sim.Time(5 * sim.Second)); got.X <= -5 {
		t.Errorf("departure-2 run still parked at t=5s (x=%g)", got.X)
	}
	// Horizon covers the last departure's full run.
	v := mobility.MPHToMps(25)
	runDur := sim.Duration(float64(sim.Second) * 32.5 / v)
	if want := 4*sim.Second + runDur; c.Horizon != want {
		t.Errorf("horizon %v, want %v", c.Horizon, want)
	}
	// The workload waits for the departure: traffic to a vehicle still
	// parked outside coverage would burn floor-MCS airtime for nothing.
	if want := 4*sim.Second + DefaultWarmup; c.Clients[0].Start != want {
		t.Errorf("workload start %v, want departure+warmup %v", c.Clients[0].Start, want)
	}
}

// TestCompileSpeedRegimes spans the schema's 1 m/s walking pace to the
// 30+ m/s trackside regime.
func TestCompileSpeedRegimes(t *testing.T) {
	for _, tc := range []struct {
		line string
		want float64
	}{
		{"mps: 1", 1},
		{"mph: 25", mobility.MPHToMps(25)},
		{"mps: 36", 36},
	} {
		c := mustCompile(t, mustParse(t, `
road:
  segments:
    - aps: 4
routes:
  - name: r
    `+tc.line+`
clients:
  - route: r
`), 1)
		if got := c.Clients[0].Traj.SpeedMps(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: speed %g m/s, want %g", tc.line, got, tc.want)
		}
	}
}

// TestCompileDeterminism: same scenario, same seed → identical digest;
// a different seed changes it.
func TestCompileDeterminism(t *testing.T) {
	a := mustCompile(t, mustParse(t, corridorYAML), 2)
	b := mustCompile(t, mustParse(t, corridorYAML), 2)
	if a.Digest() != b.Digest() {
		t.Error("same scenario and seed compiled to different digests")
	}
	c := mustCompile(t, mustParse(t, corridorYAML), 3)
	if a.Digest() == c.Digest() {
		t.Error("different seeds compiled to the same digest")
	}
}

// TestCompileSeedPrecedence: the scenario's seed rules unless the
// caller overrides, and both default to 1.
func TestCompileSeedPrecedence(t *testing.T) {
	s := mustParse(t, corridorYAML)
	if got := mustCompile(t, s, 0).Config.Seed; got != 1 {
		t.Errorf("unseeded compile seed %d, want 1", got)
	}
	s.Seed = 9
	if got := mustCompile(t, s, 0).Config.Seed; got != 9 {
		t.Errorf("scenario seed ignored: %d, want 9", got)
	}
	if got := mustCompile(t, s, 4).Config.Seed; got != 4 {
		t.Errorf("caller seed ignored: %d, want 4", got)
	}
}
