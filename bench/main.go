// Command bench is the repository benchmark: it rides four closed-loop
// simulation workloads (testbed, crowd, corridor, serve2), reports the
// end-to-end metrics of an untraced run — realtime ratio, set-up time,
// allocation rates, live heap, goodput — and, with -trace, the per-layer
// metrics of a traced run: each module's share of CPU-profile samples
// and the counters the layers expose. Every ride's goodputs are checked
// against pinned digests and against re-rides and reference executors.
//
//	bash bench/run.sh --workload crowd --seed 1 --seconds 15 --trace 0
//	cd bench && go run . -workload corridor,serve2 -trace -json out.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"wgtt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default all: testbed,crowd,corridor,serve2)")
		seed     = fs.Int64("seed", 1, "workload seed S: set i of a run rides seed S+i")
		seconds  = fs.Float64("seconds", 15, "measuring time on the reference host; fixes the ride count, so a faster build finishes sooner")
		trace    = fs.Bool("trace", false, "report per-layer metrics from a traced pass (CPU profile, telemetry, wait stats, timed exchanges)")
		traceOut = fs.String("trace-out", "", "write the first traced ride's spans as Chrome trace JSON to this file")
		jsonOut  = fs.String("json", "", "write every metric, the environment and the ride counts as JSON to this file")
		pinOut   = fs.String("pin", "", "regenerate the pinned digests into this file (normally bench/testdata/signatures.json) and exit")
		short    = fs.Bool("short", false, "one set of short rides, unpinned: a smoke run")
		workDir  = fs.String("work", ".bench_build", "directory for serve2's unix sockets")
	)
	if err := fs.Parse(normalizeBoolArg(args, "trace")); err != nil {
		return err
	}
	if *traceOut != "" && !*trace {
		return fmt.Errorf("-trace-out needs -trace")
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	if *pinOut != "" {
		return writePins(*pinOut, ws, rideOpts{workDir: *workDir}, stderr)
	}

	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace, setupSamples: 7, workDir: *workDir}
	if *short {
		rc = shortConfig(rc)
	} else if rc.pins, err = loadPins(); err != nil {
		return err
	}
	var results []*workloadResult
	for _, w := range ws {
		wr := runWorkload(w, rc)
		for _, f := range wr.failures {
			fmt.Fprintln(stderr, "FAIL", f)
		}
		printHuman(stdout, wr)
		results = append(results, wr)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return writeChrome(w, results) }); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(w io.Writer) error { return writeReport(w, rc, results) }); err != nil {
			return err
		}
	}
	return writeResultLine(stdout, rc.trace, results)
}

// shortConfig turns a run into a smoke run: one set of rides capped at
// a short horizon, one set-up sample, no pins.
func shortConfig(rc runConfig) runConfig {
	rc.sets = 1
	rc.setupSamples = 1
	rc.horizon = 600 * wgtt.Millisecond
	rc.pins = nil
	return rc
}

// normalizeBoolArg rewrites "-name 0|1|true|false" as "-name=<v>", so a
// boolean flag also accepts its value as a separate argument.
func normalizeBoolArg(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func selectWorkloads(names string) ([]*workload, error) {
	if names == "" {
		return workloads, nil
	}
	var ws []*workload
	for _, n := range strings.Split(names, ",") {
		w := workloadByName(strings.TrimSpace(n))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q (have testbed, crowd, corridor, serve2)", n)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// printHuman prints one workload's metrics as a table.
func printHuman(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: seeds %d..%d, %d timed rides + %d verification",
		wr.name, wr.seed, wr.seed+int64(wr.sets)-1, len(wr.timed), wr.verify)
	if len(wr.traced) > 0 {
		fmt.Fprintf(w, " + %d traced", len(wr.traced))
	}
	fmt.Fprintf(w, ", %d failed; nproc %d, GOMAXPROCS %d\n", wr.failedRide, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "    %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	section("end to end (untraced)", wr.endToEnd)
	section("per layer (traced)", wr.perLayer)
	if len(wr.unsupported) > 0 {
		fmt.Fprintf(w, "    unsupported here: %s\n", strings.Join(wr.unsupportedNames(), ", "))
	}
	section("details", wr.detail)
}

func (wr *workloadResult) unsupportedNames() []string {
	var out []string
	for _, m := range wr.unsupported {
		out = append(out, m.Name)
	}
	return out
}

// metricMap keys metrics by name, with prefix prepended.
func metricMap(dst map[string]metric, prefix string, ms ...[]metric) {
	for _, group := range ms {
		for _, m := range group {
			dst[prefix+m.Name] = m
		}
	}
}

// writeResultLine prints the one-line result: the end-to-end metrics, or
// with trace the per-layer ones. Several workloads key their metrics as
// "<workload>/<metric>". The line keys every per-layer metric on every
// workload, so an unsupported one reads 0 here; the -json report and
// the printed table list it as unsupported instead.
func writeResultLine(w io.Writer, trace bool, results []*workloadResult) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, wr := range results {
		line.Attempted += wr.attempted
		line.Failed += wr.failedRide
		prefix := ""
		if len(results) > 1 {
			prefix = wr.name + "/"
		}
		if trace {
			metricMap(line.Metrics, prefix, wr.perLayer, wr.unsupported)
		} else {
			metricMap(line.Metrics, prefix, wr.endToEnd)
		}
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeReport writes the -json report.
func writeReport(w io.Writer, rc runConfig, results []*workloadResult) error {
	type wlReport struct {
		Seeds       [2]int64          `json:"seeds"`
		Sets        int               `json:"sets"`
		Rides       int               `json:"rides"`
		RidesFailed int               `json:"rides_failed"`
		TimedRides  int               `json:"timed_rides"`
		TracedRides int               `json:"traced_rides"`
		VerifyRides int               `json:"verification_rides"`
		SetRatios   []float64         `json:"set_realtime_ratios"`
		Timed       []rideReport      `json:"timed"`
		Failures    []string          `json:"failures,omitempty"`
		Metrics     map[string]metric `json:"metrics"`
		Unsupported []string          `json:"unsupported,omitempty"`
	}
	rep := struct {
		GoVersion  string              `json:"go_version"`
		Commit     string              `json:"commit"`
		NProc      int                 `json:"nproc"`
		GOMAXPROCS int                 `json:"gomaxprocs"`
		Seed       int64               `json:"seed"`
		Seconds    float64             `json:"seconds"`
		Trace      bool                `json:"trace"`
		Workloads  map[string]wlReport `json:"workloads"`
	}{
		GoVersion: runtime.Version(), Commit: commit(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Workloads: map[string]wlReport{},
	}
	for _, wr := range results {
		r := wlReport{
			Seeds: [2]int64{wr.seed, wr.seed + int64(wr.sets) - 1}, Sets: wr.sets,
			Rides: wr.attempted, RidesFailed: wr.failedRide,
			TimedRides: len(wr.timed), TracedRides: len(wr.traced), VerifyRides: wr.verify,
			SetRatios: wr.setRatios, Failures: wr.failures, Metrics: map[string]metric{},
			Unsupported: wr.unsupportedNames(),
		}
		for _, t := range wr.timed {
			r.Timed = append(r.Timed, rideReport{t.key, t.simS, float64(t.setupNs) / 1e9, float64(t.runNs) / 1e9, t.digest})
		}
		metricMap(r.Metrics, "", wr.endToEnd, wr.perLayer, wr.detail)
		rep.Workloads[wr.name] = r
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// rideReport is one timed ride in the -json report.
type rideReport struct {
	Ride   string  `json:"ride"`
	SimS   float64 `json:"sim_s"`
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	Digest string  `json:"digest"`
}

// commit reports the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
