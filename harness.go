package wgtt

import (
	"fmt"
	"math"
	"strings"

	"wgtt/internal/core"
	"wgtt/internal/csi"
	"wgtt/internal/phy"
	"wgtt/internal/runner"
	"wgtt/internal/scenario"
	"wgtt/internal/sim"
	"wgtt/internal/stats"
	"wgtt/internal/workload"
)

// Exec is the execution half of an experiment configuration: run-level
// fan-out (Workers) and per-segment domains (ParallelSegments).
// It is the runner's type re-exported, so Options embeds the very same
// half and no translation layer is needed.
type Exec = runner.Exec

// Options configure an experiment run: the run-control half (Seed,
// Mutate, Metrics) plus the embedded execution half (Workers,
// ParallelSegments), e.g. Options{Seed: 1, Exec: Exec{Workers: 1}}.
type Options struct {
	// Seed drives every random stream; the same seed reproduces the
	// same result bit for bit.
	Seed int64
	// Mutate, when non-nil, adjusts the network config before building,
	// after the experiment's own edits to it (see buildConfig).
	Mutate func(*Config)
	// Metrics, when non-nil, enables telemetry on every ride of a
	// mean-goodput experiment (Fig 13, 17 and 20 and the ablations) and
	// folds each ride's end-of-run snapshot into the collector, keyed by
	// scheme (or ablation variant) and transport. Print the result with
	// MetricsCollector.Summary.
	Metrics *MetricsCollector
	// Exec is the execution half; see Exec.
	Exec
}

// runAll executes arbitrary independent experiment jobs (each building its
// own network) on the runner, returning results in job order.
func runAll[R any](opt Options, jobs []func() R) []R {
	return runner.Map(opt.Exec, jobs, func(_ int, job func() R) R { return job() })
}

// goodputRide is one ride of a mean-goodput batch (Fig 13, 17 and 20 and
// the ablations): every client carries a bulk downlink.
type goodputRide struct {
	scheme Scheme
	tcp    bool
	// mutate is the case's own config change; see buildConfig.
	mutate func(*Config)
	// variant names the case in metrics labels; "" names it by scheme.
	variant string
	place   placement
}

// placement puts a ride's clients on its final config: their
// trajectories and the ride's horizon.
type placement func(cfg *Config) ([]Trajectory, Duration)

// schemeRides is one case of a figure that compares WGTT with Enhanced
// 802.11r: its four rides, in the order WGTT TCP, WGTT UDP, 11r TCP,
// 11r UDP.
func schemeRides(place placement) []goodputRide {
	return []goodputRide{
		{scheme: SchemeWGTT, tcp: true, place: place},
		{scheme: SchemeWGTT, place: place},
		{scheme: SchemeEnhanced80211r, tcp: true, place: place},
		{scheme: SchemeEnhanced80211r, place: place},
	}
}

// crossAt places one client crossing the whole road at mph.
func crossAt(mph float64) placement {
	return func(cfg *Config) ([]Trajectory, Duration) {
		traj, dur := scenario.Crossing(cfg, mph)
		return []Trajectory{traj}, dur
	}
}

// meanGoodputs rides every goodputRide on the runner and returns each
// ride's mean per-client goodput in ride order. With opt.Metrics set,
// each ride runs with telemetry on and records its end-of-run snapshot
// under "<variant or scheme> <TCP|UDP>".
func meanGoodputs(opt Options, rides []goodputRide) []float64 {
	return runner.Map(opt.Exec, rides, func(_ int, g goodputRide) float64 {
		cfg := buildConfig(g.scheme, opt, g.mutate)
		if opt.Metrics != nil {
			cfg.Telemetry = true
		}
		trajs, dur := g.place(&cfg)
		r := BuildScenarioRun(downlinkPlan(cfg, dur, bulk(g.tcp), scenario.DefaultRateMbps, trajs...))
		r.Net.Run(dur)
		if opt.Metrics != nil {
			label := g.variant
			if label == "" {
				label = g.scheme.String()
			}
			if g.tcp {
				label += " TCP"
			} else {
				label += " UDP"
			}
			opt.Metrics.Record(label, r.Net.MetricsSnapshot())
		}
		return mean(r.goodputs())
	})
}

// bulk is the downlink workload a ride's tcp flag selects.
func bulk(tcp bool) scenario.Workload {
	if tcp {
		return scenario.WorkloadTCP
	}
	return scenario.WorkloadUDP
}

// DefaultOptions returns the options used throughout EXPERIMENTS.md.
func DefaultOptions() Options { return Options{Seed: 1} }

// startAfterWarmup schedules a workload start.
func startAfterWarmup(n *Network, start func()) {
	n.Loop.After(scenario.DefaultWarmup, start)
}

// buildConfig is the one place an experiment's config is made, in a
// fixed order: the scheme's defaults and the experiment's seed, domain
// execution if opt.ParallelSegments asks for it, then the case's own
// mutate (nil for none), and the caller's opt.Mutate last, so the
// caller's edit wins over the experiment's, as in scenario.Compile.
func buildConfig(scheme Scheme, opt Options, mutate func(*Config)) Config {
	cfg := DefaultConfig(scheme)
	cfg.Seed = opt.Seed
	if opt.ParallelSegments {
		cfg.Domains = core.DomainsParallel
	}
	for _, m := range []func(*Config){mutate, opt.Mutate} {
		if m != nil {
			m(&cfg)
		}
	}
	return cfg
}

// buildNetwork constructs a network for a scheme with the experiment's
// config.
func buildNetwork(scheme Scheme, opt Options) *Network {
	return NewNetwork(buildConfig(scheme, opt, nil))
}

// crossingRide builds the single-vehicle ride most micro-benchmarks use:
// one client crossing cfg's whole road at mph, carrying workload w (UDP
// at rateMbps, or TCP) from the warm-up on.
func crossingRide(cfg Config, mph float64, w scenario.Workload, rateMbps float64) *ServeRun {
	traj, dur := scenario.Crossing(&cfg, mph)
	return BuildScenarioRun(downlinkPlan(cfg, dur, w, rateMbps, traj))
}

// potentialMbps integrates the oracle link capacity over a drive: at
// every sample the best AP's ESNR is mapped to the highest sustainable
// PHY rate, discounted by a fixed MAC efficiency. This is the
// "channel capacity" that Fig. 4 and Fig. 21 compare deliveries against.
func potentialMbps(n *Network, clientID int, samples *[]float64) func() {
	return func() {
		best := 0.0
		for ap := 0; ap < n.TotalAPs(); ap++ {
			esnr := n.LinkESNRdB(ap, clientID)
			r := phy.BestRateFor(esnr, 0)
			if esnr < phy.Rates[0].ThresholdDB {
				continue // no rate sustainable
			}
			if r.Mbps > best {
				best = r.Mbps
			}
		}
		*samples = append(*samples, best*macEfficiency)
	}
}

// macEfficiency discounts PHY rate to achievable MAC-layer goodput
// (preamble, contention, BA exchange, headers).
const macEfficiency = 0.75

// sampleEvery schedules fn at a fixed cadence for the whole run.
func sampleEvery(n *Network, period Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		n.Loop.After(period, tick)
	}
	n.Loop.After(period, tick)
}

// fmtTable renders rows of labeled values in a paper-like layout.
func fmtTable(header []string, rows [][]string) string {
	var b strings.Builder
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, v := range r {
			if i < len(width) && len(v) > width[i] {
				width[i] = len(v)
			}
		}
	}
	line := func(cells []string) {
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], v)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// f1 formats a float with one decimal, rendering +Inf as the paper's ∞.
func f1(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.1f", v)
}

func f2(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

// Internal aliases used by the experiment files.
type (
	coreNetwork = core.Network
	throughput  = stats.Throughput
)

var (
	_ = csi.RefModulation
	_ = workload.PortUplink
	_ = sim.Second
)
