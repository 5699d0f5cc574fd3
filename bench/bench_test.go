package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// unsupportedHere lists, per workload, the per-layer metrics whose
// source does not exist there (README.md).
var unsupportedHere = func() map[string][]string {
	var (
		addClient = []string{"core.add_client_ms", "channel.links", "channel.us_per_link"}
		wire      = []string{"wire.exchanges", "wire.exchange_frac", "wire.bytes_per_exchange", "wire.resends"}
		mac       = []string{"mac.ppdus", "mac.losses_per_mpdu", "mac.collisions"}
		coord     = []string{"sim.rounds", "sim.barrier_wait_frac"}
	)
	cat := func(groups ...[]string) []string { return slices.Concat(groups...) }
	return map[string][]string{
		"testbed":  cat(coord, wire),
		"crowd":    cat(coord, wire),
		"corridor": cat(addClient, wire, mac),
		"serve2":   cat(addClient, mac, []string{"sim.barrier_wait_frac"}),
	}
}()

// TestSmoke runs one short set of every workload, traced, through the
// command line. It checks that no ride failed, that the result line
// keys every per-layer metric BENCHMARK.json names with its unit, and
// that the -json report holds every metric with its unit unless the
// metric's source does not exist on that workload.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(t.TempDir(), "report.json")
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", strings.Join(names, ","), "--seed", "1", "--trace", "1",
		"-short", "-work", t.TempDir(), "-json", report}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !result.Correct || result.Failed != 0 || result.Attempted == 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d\n%s", result.Correct, result.Attempted, result.Failed, stderr.String())
	}

	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Workloads map[string]struct {
			Metrics     map[string]metric
			Unsupported []string
		}
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	for _, w := range names {
		for _, m := range spec.PerLayer {
			if g, ok := result.Metrics[w+"/"+m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("result line: %s/%s is %+v (present %v), BENCHMARK.json says %s", w, m.Name, g, ok, m.Unit)
			}
		}
		got := rep.Workloads[w]
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			g, ok := got.Metrics[m.Name]
			switch {
			case !ok && slices.Contains(got.Unsupported, m.Name):
			case !ok:
				t.Errorf("%s: %s not emitted", w, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w, m.Name, g.Unit, m.Unit)
			}
		}
		for _, name := range got.Unsupported {
			// A short ride may lack the handoffs a percentile needs.
			if !slices.Contains(unsupportedHere[w], name) && !strings.HasPrefix(name, "controller.handoff_ms.") {
				t.Errorf("%s: %s unsupported, but its source exists there", w, name)
			}
		}
	}
}

// TestServe2ShardedMatchesInProcess rides serve2 sharded over the wire
// and in-process and requires bit-identical goodputs.
func TestServe2ShardedMatchesInProcess(t *testing.T) {
	w := workloadByName("serve2")
	o := rideOpts{horizon: shortConfig(runConfig{}).horizon, workDir: t.TempDir()}
	sharded := rideOnce(w, ride{seed: 1}, o)
	o.reference = true
	inProcess := rideOnce(w, ride{seed: 1}, o)
	if sharded.err != nil || inProcess.err != nil {
		t.Fatalf("sharded: %v; in-process: %v", sharded.err, inProcess.err)
	}
	if sharded.digest != inProcess.digest {
		t.Errorf("sharded goodputs %v, in-process %v", sharded.flows, inProcess.flows)
	}
}

// TestCorruptPinFailsThatWorkload pins two workloads from a clean run,
// corrupts one workload's pins, and requires exactly that workload's
// rides to fail.
func TestCorruptPinFailsThatWorkload(t *testing.T) {
	rc := shortConfig(runConfig{seed: 1, workDir: t.TempDir()})
	ws := []*workload{workloadByName("testbed"), workloadByName("corridor")}
	pins := pinSet{}
	for _, w := range ws {
		wr := runWorkload(w, rc)
		if wr.failedRide != 0 {
			t.Fatalf("%s: clean run failed: %v", w.name, wr.failures)
		}
		pins[w.name] = map[string]string{}
		for _, r := range wr.timed {
			pins[w.name][r.key] = r.digest
		}
	}
	for k := range pins["testbed"] {
		pins["testbed"][k] = "corrupt"
	}
	rc.pins = pins
	if wr := runWorkload(ws[0], rc); wr.failedRide != wr.attempted {
		t.Errorf("testbed: %d of %d rides failed against corrupt pins", wr.failedRide, wr.attempted)
	}
	if wr := runWorkload(ws[1], rc); wr.failedRide != 0 {
		t.Errorf("corridor: %d rides failed against its own pins: %v", wr.failedRide, wr.failures)
	}
}
