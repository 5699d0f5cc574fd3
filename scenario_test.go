package wgtt

import (
	"fmt"
	"path/filepath"
	"testing"

	"wgtt/internal/core"
)

// scenarioCorridorResult runs the compiled corridor scenario under the
// given domain mode and folds it into the experiments' CorridorResult
// shape for rendering against the golden pins.
func scenarioCorridorResult(t *testing.T, seed int64, mode core.DomainMode) (CorridorResult, *ServeRun) {
	t.Helper()
	spec, err := LoadScenario(filepath.Join("examples", "scenarios", "corridor.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileScenario(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	comp.Config.Telemetry = true
	comp.Config.Domains = mode
	r := BuildScenarioRun(comp)
	r.Net.Run(r.Dur)
	res := CorridorResult{Segments: len(r.Cfg.Segments), APsPerSegment: r.APsPerSegment, SpeedMPH: r.SpeedMPH}
	for _, f := range r.Figures(nil) {
		res.PerClientMbps = append(res.PerClientMbps, f.Mbps)
	}
	res.MeanMbps = mean(res.PerClientMbps)
	return res, r
}

// goldenCorridorMetrics are the digest16s of the corridor's MetricsText
// snapshot (DomainsSerial, telemetry on, the whole road) at seeds 1–3,
// taken from the corridor as it was wired in Go before it compiled
// corridor.yaml.
var goldenCorridorMetrics = map[int64]string{
	1: "6ea28a38967922b5822d124ff03931f9",
	2: "a52236d867af46a20ffe78f72c7b41db",
	3: "e632b8fc8c8e4b7d6c24ae49b51203ae",
}

// TestScenarioCorridorGolden is the faithfulness gate: the compiled
// examples/scenarios/corridor.yaml must reproduce the corridor
// experiment byte for byte — the goldenCorridor figure pins AND the
// goldenCorridorMetrics telemetry digests — for seeds 1–3. Both
// references predate the corridor's compilation from that file, so a
// drift in the scenario compiler fails here.
func TestScenarioCorridorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a full corridor ride per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			res, run := scenarioCorridorResult(t, seed, core.DomainsSerial)
			got := render(res)
			if got != goldenCorridor[seed] {
				t.Errorf("scenario-compiled corridor drifted from the golden pin\n%s",
					firstDiffLabeled("golden", "scenario", goldenCorridor[seed], got))
			}
			metrics := snapshotText(t, run.Net.MetricsSnapshot())
			if got, want := digest16(metrics), goldenCorridorMetrics[seed]; got != want {
				t.Errorf("scenario-compiled telemetry digest %s, want %s", got, want)
			}
		})
	}
}

// scenarioParityRender runs a generated scenario in the given mode and
// renders everything comparable: per-client figures plus the full
// telemetry snapshot.
func scenarioParityRender(t *testing.T, spec *ScenarioSpec, mode core.DomainMode) (string, *Network) {
	t.Helper()
	comp, err := CompileScenario(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp.Config.Telemetry = true
	comp.Config.Domains = mode
	r := BuildScenarioRun(comp)
	r.Net.Run(r.Dur)
	var mbps []float64
	for _, f := range r.Figures(nil) {
		mbps = append(mbps, f.Mbps)
	}
	return fmt.Sprintf("%#v\n", mbps) + snapshotText(t, r.Net.MetricsSnapshot()), r.Net
}

// TestGeneratedScenarioParity is the property-test harness over the
// scenario generator: for seeds 1–10, a generated transit network must
// run bit-identically (figures + telemetry) under DomainsSerial and
// DomainsParallel, and the federation ownership directory must account
// for every client at the end of the run.
func TestGeneratedScenarioParity(t *testing.T) {
	if testing.Short() {
		t.Skip("twenty generated-network runs")
	}
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		// Cycle the size classes so the sweep covers more than one shape.
		size := []string{"small", "medium", "large"}[seed%3]
		t.Run(fmt.Sprintf("seed%d-%s", seed, size), func(t *testing.T) {
			t.Parallel()
			spec, err := GenerateScenario(seed, size)
			if err != nil {
				t.Fatal(err)
			}
			serial, sn := scenarioParityRender(t, spec, core.DomainsSerial)
			parallel, pn := scenarioParityRender(t, spec, core.DomainsParallel)
			if serial != parallel {
				t.Errorf("generated scenario diverged between domain modes\n%s",
					firstDiff(serial, parallel))
			}
			if lost := sn.LostClients(); len(lost) != 0 {
				t.Errorf("serial run lost clients %v", lost)
			}
			if lost := pn.LostClients(); len(lost) != 0 {
				t.Errorf("parallel run lost clients %v", lost)
			}
		})
	}
}

// TestScenarioExamplesCompile keeps every checked-in example loadable:
// each must parse, validate, compile, and pass core config validation.
// (allday.yaml's six-hour horizon makes running it here unreasonable;
// compiling it is the contract.)
func TestScenarioExamplesCompile(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example scenarios found")
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := LoadScenario(path)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := CompileScenario(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := comp.Config.Validate(); err != nil {
				t.Fatal(err)
			}
			if comp.Digest() == "" || comp.Horizon <= 0 {
				t.Fatalf("degenerate compile: digest=%q horizon=%v", comp.Digest(), comp.Horizon)
			}
		})
	}
}

// TestServeScenarioFile checks the wgtt-serve path: a scenario file
// name builds a telemetry-on, domain-mode ServeRun, and the file's own
// seed survives unless the caller overrides it.
func TestServeScenarioFile(t *testing.T) {
	path := filepath.Join("examples", "scenarios", "trackside.yaml")
	sr, err := BuildServeScenario(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Cfg.Telemetry {
		t.Error("serve scenario built without telemetry")
	}
	if sr.Cfg.Domains != core.DomainsSerial {
		t.Errorf("serve scenario domains %v, want DomainsSerial", sr.Cfg.Domains)
	}
	if sr.Cfg.Seed != 7 {
		t.Errorf("seed %d, want the file's seed 7", sr.Cfg.Seed)
	}
	if sr.Cfg.ChannelBackend != "mmwave60g" {
		t.Errorf("channel backend %q, want the file's mmwave60g", sr.Cfg.ChannelBackend)
	}
	sr, err = BuildServeScenario(path, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cfg.Seed != 5 {
		t.Errorf("seed %d, want the override 5", sr.Cfg.Seed)
	}
	if _, err := BuildServeScenario("no/such/file.yaml", Options{}); err == nil {
		t.Error("missing scenario file did not error")
	}
}
