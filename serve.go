package wgtt

import (
	"fmt"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/scenario"
	"wgtt/internal/trace"
)

// This file is the scenario surface of wgtt-serve, the long-running
// multi-process daemon. A partitioned run is SPMD: every process calls
// BuildServeScenario with the identical name and options, constructs
// the identical Network, and then executes only its owned share of the
// domain graph (Network.RunPartitioned). Because the "corridor"
// scenario builds through the exact construction path of the
// in-process corridor ride (corridorPlan on the embedded
// corridor.yaml), a sharded run is bit-comparable to CorridorThroughput
// — that is what the multi-process parity test pins.

// ServeRun is a constructed-but-not-yet-run scenario: the network, its
// workload, and how long to ride. Callers advance it with Net.Run (one
// process) or Net.RunPartitioned (a sharded run), then read Figures.
type ServeRun struct {
	Net *Network
	Cfg Config
	// Dur is the scenario's natural end time.
	Dur Duration
	// APsPerSegment and SpeedMPH echo the scenario shape for reports.
	APsPerSegment int
	SpeedMPH      float64

	meters  []*throughput
	clients []*Client
}

// Now returns the scenario's current virtual time: the coordinator
// clock, the only clock that advances on every process of a partitioned
// run.
func (r *ServeRun) Now() Time { return r.Net.Coord.Now() }

// goodputs reads every client's mean goodput at the current virtual
// time, in plan order.
func (r *ServeRun) goodputs() []float64 {
	out := make([]float64, len(r.meters))
	for i, m := range r.meters {
		out[i] = m.MeanMbps(r.Now())
	}
	return out
}

// ServeClient is one client's goodput figure in a ServeReport.
type ServeClient struct {
	ID   int     `json:"id"`
	Mbps float64 `json:"mbps"`
	// Owned reports whether this process's reading is authoritative:
	// the client's radio currently resides in a segment domain the
	// process executes. Exactly one process reports Owned per client.
	Owned bool `json:"owned"`
}

// Figures reads every client's mean goodput at the current virtual
// time. owned is the process's domain-ownership set from a partitioned
// run (marks which figures are authoritative); nil means a
// whole-network run, where every figure is.
func (r *ServeRun) Figures(owned map[string]bool) []ServeClient {
	out := make([]ServeClient, 0, len(r.meters))
	for i, mbps := range r.goodputs() {
		sc := ServeClient{ID: i, Mbps: mbps, Owned: true}
		if owned != nil {
			sc.Owned = r.Net.OwnsClient(owned, r.clients[i])
		}
		out = append(out, sc)
	}
	return out
}

// ServeReport is one wgtt-serve process's end-of-run output (JSON on
// stdout with -report). Merging the parts of a partitioned run — keep
// each client figure from the process that owns it, stitch the metric
// shards with telemetry.MergeSnapshots — reproduces the single-process
// report bit for bit.
type ServeReport struct {
	Proc     int              `json:"proc"`
	Scenario string           `json:"scenario"`
	Seed     int64            `json:"seed"`
	NowNs    int64            `json:"now_ns"`
	Clients  []ServeClient    `json:"clients"`
	Metrics  *MetricsSnapshot `json:"metrics,omitempty"`
	// Trace and Anomalies are this process's flight-recorder shards
	// (-flight-recorder): records only from domains the process
	// executed, since remote domains never run here. Stitching every
	// process's Trace with StitchTrace reassembles the run's causal
	// timeline.
	Trace     []TraceRecord  `json:"trace,omitempty"`
	Anomalies []TraceAnomaly `json:"anomalies,omitempty"`
}

// TraceRecord is one flight-recorder entry (see internal/trace.Record).
type TraceRecord = trace.Record

// TraceAnomaly is one anomaly-trigger firing (internal/trace.Anomaly).
type TraceAnomaly = trace.Anomaly

// StitchTrace merges per-process flight-recorder shards into one
// deterministic causal timeline (internal/trace.Stitch).
func StitchTrace(shards ...[]TraceRecord) []TraceRecord { return trace.Stitch(shards...) }

// TraceHandoffs folds a stitched timeline into per-switch summaries
// (internal/trace.Handoffs).
func TraceHandoffs(recs []TraceRecord) []trace.Handoff { return trace.Handoffs(recs) }

// ServeScenarios lists the scenario names BuildServeScenario accepts.
// A name with a path separator or an extension is instead treated as a
// declarative scenario file (see ScenarioIsFile).
func ServeScenarios() []string { return []string{"corridor", "shuttle"} }

// ScenarioIsFile reports whether a -scenario argument names a
// declarative scenario file rather than a built-in scenario: built-in
// names are bare words, files carry a path separator or an extension.
func ScenarioIsFile(name string) bool {
	return strings.Contains(name, "/") || strings.Contains(name, ".")
}

// BuildServeScenario constructs a named scenario for wgtt-serve.
//
//   - "corridor": the three-segment two-client 25 mph ride of
//     CorridorThroughput, built through the same construction path so
//     the figures are bit-comparable, with telemetry on. Clients cross
//     every segment, so a partitioned run migrates them between
//     processes ("segs,server" is the natural two-process split).
//   - "shuttle": the same roadway, but each client shuttles inside its
//     home segment (client 0 in seg0, client 1 in seg2) and never
//     crosses a segment boundary. Partitions that cut between segments
//     ("seg0,seg1+seg2,server") therefore never migrate a client
//     between processes — the demo topology for one daemon per street
//     block.
//
// A name for which ScenarioIsFile holds loads a declarative scenario
// file (internal/scenario) instead and compiles it onto the same
// serving shape: telemetry on, DomainsSerial within the process. The
// file's own seed applies unless opt.Seed overrides it.
//
// Every scenario runs the domain-mode network serially within each
// process (DomainsSerial); parallelism comes from the partition. Every
// opt.Mutate runs once, before the routes are lowered, so a Mutate
// that stretches the road gets clients that cross all of it.
func BuildServeScenario(name string, opt Options) (*ServeRun, error) {
	if ScenarioIsFile(name) {
		inner := opt.Mutate
		opt.Mutate = func(c *Config) {
			c.Telemetry = true
			// A single-segment scenario runs as one domain either way.
			c.Domains = core.DomainsSerial
			if inner != nil {
				inner(c)
			}
		}
		return LoadScenarioRun(name, opt)
	}
	if name != "corridor" && name != "shuttle" {
		return nil, fmt.Errorf("unknown scenario %q (have corridor, shuttle)", name)
	}
	inner := opt.Mutate
	opt.Mutate = func(c *Config) {
		c.Telemetry = true
		if inner != nil {
			inner(c)
		}
	}
	road, err := corridorPlan(opt, core.DomainsSerial, 3)
	if err != nil {
		return nil, err
	}
	if name == "shuttle" {
		road = shuttlePlan(road)
	}
	return BuildScenarioRun(road), nil
}

// shuttleBounce builds a trajectory that shuttles between x0 and x1 in
// lane y for at least dur, pausing briefly at each end like a transit
// stop.
func shuttleBounce(x0, x1, y float64, dur Duration) *Waypoints {
	const (
		leg   = 1500 * Millisecond // one end-to-end sweep
		dwell = 250 * Millisecond  // stop at each end
	)
	pts := []Waypoint{{At: 0, Pos: posXY(x0, y)}}
	at := Duration(0)
	ends := [2]float64{x1, x0}
	for i := 0; at < dur+leg; i++ {
		at += dwell
		pts = append(pts, Waypoint{At: at, Pos: pts[len(pts)-1].Pos})
		at += leg
		pts = append(pts, Waypoint{At: at, Pos: posXY(ends[i%2], y)})
	}
	return NewWaypoints(pts)
}

// shuttlePlan is the "shuttle" scenario on the corridor's compiled
// road: segment-bound clients (see BuildServeScenario), a Go plan
// because the schema has no bouncing route.
func shuttlePlan(road *CompiledScenario) *CompiledScenario {
	const dur = 8 * Second
	// Segment x-ranges at the default 7.5 m pitch: seg0 covers APs at
	// 0–22.5 m, seg2 covers 60–82.5 m. The shuttles stay several AP
	// pitches clear of the segment boundaries.
	p := downlinkPlan(road.Config, dur, scenario.WorkloadUDP, scenario.DefaultRateMbps,
		shuttleBounce(3, 19, 0, dur), shuttleBounce(63, 79, -3, dur))
	p.APsPerSegment = road.APsPerSegment
	return p
}
