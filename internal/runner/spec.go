package runner

import (
	"wgtt/internal/core"
	"wgtt/internal/mobility"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/workload"
)

// Transport selects the bulk flow a RunSpec attaches to each client.
type Transport int

// Transports.
const (
	// UDP is an iperf-style CBR downlink at OfferedMbps.
	UDP Transport = iota
	// TCP is a bulk TCP downlink.
	TCP
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	if t == TCP {
		return "TCP"
	}
	return "UDP"
}

// DefaultWarmup delays workload start past association and controller
// adoption, as any real flow begins after the client has joined.
const DefaultWarmup = 100 * sim.Millisecond

// RunSpec describes one independent drive-by simulation: which scheme to
// build, the seed of every random stream, the client trajectories, the
// transport loading each client, and how long to run. Each spec executes
// on a freshly built network whose RNG streams fork from Seed alone, so
// specs are safe to run concurrently and results depend only on the spec.
type RunSpec struct {
	// Label names the run in logs and progress output.
	Label string
	// Scheme selects WGTT or a baseline.
	Scheme core.Scheme
	// Seed drives every random stream of the run.
	Seed int64
	// Mutate, when non-nil, adjusts the config before building (must be
	// safe to call concurrently with other specs' Mutate — a pure
	// function of its argument).
	Mutate func(*core.Config)
	// Trajs adds one client per trajectory.
	Trajs []mobility.Trajectory
	// Duration is the virtual time to simulate.
	Duration sim.Duration
	// Transport loads every client with bulk TCP or CBR UDP.
	Transport Transport
	// OfferedMbps is the per-client UDP load; ignored for TCP.
	OfferedMbps float64
	// Warmup delays flow start; zero means DefaultWarmup.
	Warmup sim.Duration
	// Metrics, when non-nil, enables Config.Telemetry on the run's
	// network and folds the end-of-run snapshot into the collector under
	// MetricsLabel (falling back to Label, then "<scheme> <transport>").
	// Record is concurrency-safe, so parallel specs may share one
	// collector.
	Metrics *telemetry.Collector
	// MetricsLabel overrides the collector case this run lands in, so
	// repeats of one experiment case (seeds, speeds) aggregate together.
	MetricsLabel string
}

// Run executes one spec on a fresh network and returns the mean per-client
// goodput in Mbit/s. It is the executor the figure experiments share; it
// never touches state outside the spec, so any number of Runs may execute
// concurrently.
func Run(spec RunSpec) float64 {
	cfg := core.DefaultConfig(spec.Scheme)
	cfg.Seed = spec.Seed
	if spec.Mutate != nil {
		spec.Mutate(&cfg)
	}
	if spec.Metrics != nil {
		cfg.Telemetry = true
	}
	n := core.MustNewNetwork(cfg)
	warmup := spec.Warmup
	if warmup == 0 {
		warmup = DefaultWarmup
	}
	var flows []interface{ Mbps(sim.Time) float64 }
	for _, traj := range spec.Trajs {
		c := n.AddClient(traj)
		if spec.Transport == TCP {
			f := workload.NewTCPDownlink(n, c, 0)
			n.Loop.After(warmup, f.Start)
			flows = append(flows, f)
		} else {
			f := workload.NewUDPDownlink(n, c, spec.OfferedMbps)
			n.Loop.After(warmup, f.Start)
			flows = append(flows, f)
		}
	}
	n.Run(spec.Duration)
	if spec.Metrics != nil {
		label := spec.MetricsLabel
		if label == "" {
			label = spec.Label
		}
		if label == "" {
			label = spec.Scheme.String() + " " + spec.Transport.String()
		}
		spec.Metrics.Record(label, n.MetricsSnapshot())
	}
	if len(flows) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range flows {
		sum += f.Mbps(n.Loop.Now())
	}
	return sum / float64(len(flows))
}

// RunAll executes every spec — in parallel unless opt says otherwise — and
// returns the goodputs in spec order, bit-identical to running the specs
// serially.
func RunAll(opt Options, specs []RunSpec) []float64 {
	return Map(opt, specs, func(_ int, s RunSpec) float64 { return Run(s) })
}
