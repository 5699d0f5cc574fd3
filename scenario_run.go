package wgtt

import (
	"wgtt/internal/scenario"
	"wgtt/internal/stats"
)

// This file is the root-package bridge to internal/scenario: load or
// generate a declarative scenario, compile it, and build the compiled
// plan into a runnable ServeRun. BuildScenarioRun is the only code that
// turns a bulk-downlink ride into a network with its flows attached:
// scenario files, the built-in corridor and the experiments' Go-built
// plans (downlinkPlan) all ride through it.

// ScenarioSpec is a declarative scenario (internal/scenario.Scenario).
type ScenarioSpec = scenario.Scenario

// CompiledScenario is a compiled scenario (internal/scenario.Compiled).
type CompiledScenario = scenario.Compiled

// LoadScenario parses a scenario file (YAML or JSON).
func LoadScenario(path string) (*ScenarioSpec, error) {
	return scenario.ParseFile(path)
}

// ParseScenario parses scenario bytes (YAML or JSON).
func ParseScenario(data []byte) (*ScenarioSpec, error) {
	return scenario.Parse(data)
}

// GenerateScenario builds a seeded random scenario; size is
// small | medium | large ("" = small).
func GenerateScenario(seed int64, size string) (*ScenarioSpec, error) {
	sc, err := scenario.ParseSizeClass(size)
	if err != nil {
		return nil, err
	}
	return scenario.Generate(seed, sc), nil
}

// CompileScenario validates and lowers a scenario. seed 0 defers to the
// scenario's own seed; non-zero overrides it.
func CompileScenario(s *ScenarioSpec, seed int64) (*CompiledScenario, error) {
	return scenario.Compile(s, seed, nil)
}

// BuildScenarioRun constructs the compiled scenario's network, on
// c.Config as given, and its workload: per client in plan order, the
// client, then its flow, then the flow's start at the planned offset.
// Config edits belong in scenario.Compile's mutate, before the routes
// are lowered.
func BuildScenarioRun(c *CompiledScenario) *ServeRun {
	n := NewNetwork(c.Config)
	r := &ServeRun{Net: n, Cfg: c.Config, Dur: c.Horizon, APsPerSegment: c.APsPerSegment, SpeedMPH: c.SpeedMPH}
	for i := range c.Clients {
		p := &c.Clients[i]
		cl := n.AddClient(p.Traj)
		var meter *throughput
		switch p.Workload {
		case scenario.WorkloadTCP:
			f := NewTCPDownlink(n, cl, 0)
			n.Loop.After(p.Start, f.Start)
			meter = f.Meter
		case scenario.WorkloadNone:
			// No traffic: an idle meter keeps Figures indexed by client.
			meter = stats.NewThroughput(100 * Millisecond)
		default:
			f := NewUDPDownlink(n, cl, p.RateMbps)
			n.Loop.After(p.Start, f.Start)
			meter = f.Meter
		}
		r.meters = append(r.meters, meter)
		r.clients = append(r.clients, cl)
	}
	return r
}

// LoadScenarioRun loads, compiles, and builds a scenario file in one
// step. opt.Mutate edits the config before the routes are lowered.
func LoadScenarioRun(path string, opt Options) (*ServeRun, error) {
	s, err := LoadScenario(path)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(s, opt.Seed, opt.Mutate)
	if err != nil {
		return nil, err
	}
	return BuildScenarioRun(c), nil
}

// downlinkPlan is a ride built in Go, for the experiments whose rides
// the scenario schema does not express: cfg as given, the horizon, and
// one client per trajectory, each carrying workload w (UDP at rateMbps,
// or TCP) from the warm-up on.
func downlinkPlan(cfg Config, horizon Duration, w scenario.Workload, rateMbps float64, trajs ...Trajectory) *CompiledScenario {
	p := &CompiledScenario{Config: cfg, Horizon: horizon}
	for _, traj := range trajs {
		p.Clients = append(p.Clients, scenario.ClientPlan{
			Traj: traj, Workload: w, RateMbps: rateMbps, Start: scenario.DefaultWarmup,
		})
	}
	return p
}
