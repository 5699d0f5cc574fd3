// Command wgtt-sim runs one end-to-end scenario on the simulated roadside
// testbed and prints a summary: scheme, speed, number of clients,
// workload, and duration are all flags.
//
//	wgtt-sim -scheme wgtt -mph 15 -clients 1 -workload udp -rate 30
//	wgtt-sim -scheme 11r -mph 25 -workload tcp -series
//	wgtt-sim -segments 8x7.5,8x7.5,8x7.5 -mph 25 -workload tcp
//	wgtt-sim -segments 8x7.5,8x7.5,8x7.5 -parallel-segments -workload udp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"wgtt"
	"wgtt/internal/core"
	"wgtt/internal/trace"
)

// metricsFlag implements flag.Value for -metrics: the bare form
// (-metrics) selects the text format, the valued form (-metrics=prom)
// any of text | json | csv | prom.
type metricsFlag struct {
	on     bool
	format wgtt.MetricsFormat
}

func (f *metricsFlag) String() string { return "" }

func (f *metricsFlag) IsBoolFlag() bool { return true }

func (f *metricsFlag) Set(s string) error {
	if s == "true" { // bare -metrics
		f.on, f.format = true, wgtt.MetricsText
		return nil
	}
	if s == "false" { // -metrics=false
		f.on = false
		return nil
	}
	format, err := wgtt.ParseMetricsFormat(s)
	if err != nil {
		return err
	}
	f.on, f.format = true, format
	return nil
}

// startCPUProfile begins a pprof CPU profile; the returned func stops it.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile dumps a pprof heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	return pprof.WriteHeapProfile(f)
}

var (
	mph       = flag.Float64("mph", 15, "client speed (0 = parked mid-array)")
	clients   = flag.Int("clients", 1, "number of clients (following pattern)")
	workloadN = flag.String("workload", "udp", "udp | tcp | video | web | conference")
	rate      = flag.Float64("rate", 30, "UDP offered load, Mbit/s")
	series    = flag.Bool("series", false, "print 100 ms throughput series for client 0")
	traceN    = flag.Int("trace", 0,
		"print the last N switch-protocol records of the flight recorder (tcpdump-style); raises -flight-recorder to N")
	traceOut = flag.String("trace-out", "",
		"write the stitched flight-recorder timeline as Chrome trace_event JSON to this file (\"-\" = stdout, the summary then goes to stderr); enables -flight-recorder 4096 when unset")

	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")

	scenarioPath = flag.String("scenario", "",
		"run a declarative scenario file (YAML or JSON) instead of the flag-built deployment")
	genScenario = flag.String("gen-scenario", "",
		"run a generated scenario: SEED[:SIZE] with SIZE small | medium | large (e.g. 7:medium)")
	scenarioDigest = flag.Bool("scenario-digest", false,
		"with -scenario/-gen-scenario: print the compiled scenario's content digest and exit without running")

	metrics metricsFlag
)

// meterer is a throughput-metered workload (UDP or TCP downlink).
type meterer interface{ Mbps(wgtt.Time) float64 }

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred profile writers run on
// every path.
func run() int {
	flag.Var(&metrics, "metrics", "print end-of-run metrics; optionally -metrics=text|json|csv|prom")

	// The deployment-shaping flags (-scheme, -seed, -segments, -channel,
	// -audibility, -parallel-segments, ...) come from the surface shared
	// with wgtt-serve, plus -config for a JSON options file.
	cfg, opts, err := wgtt.LoadConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	scenario := *scenarioPath != "" || *genScenario != ""
	switch {
	case *scenarioPath != "" && *genScenario != "":
		fmt.Fprintln(os.Stderr, "-scenario and -gen-scenario are mutually exclusive")
		return 2
	case *scenarioDigest && !scenario:
		fmt.Fprintln(os.Stderr, "-scenario-digest needs -scenario or -gen-scenario")
		return 2
	case scenario:
		// The scenario file picks each client's workload.
	case *workloadN != "udp" && *workloadN != "tcp" && *workloadN != "video" && *workloadN != "web" && *workloadN != "conference":
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadN)
		return 2
	case opts.ParallelSegments && *workloadN != "udp" && *workloadN != "tcp" && *workloadN != "conference":
		fmt.Fprintf(os.Stderr, "-parallel-segments supports the udp, tcp, and conference workloads, not %q\n", *workloadN)
		return 2
	}

	cfg.Telemetry = metrics.on
	if *traceOut != "" && cfg.FlightRecorder == 0 {
		cfg.FlightRecorder = 4096
	}
	cfg.FlightRecorder = max(cfg.FlightRecorder, *traceN)
	if !scenario {
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	// The run's text output goes to stdout unless -trace-out claims it
	// for the JSON timeline.
	var out io.Writer = os.Stdout
	if *traceOut == "-" {
		out = os.Stderr
	}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var n *wgtt.Network
	var meters []meterer
	if scenario {
		if n, err = runScenario(out, cfg, opts.ParallelSegments); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if n == nil { // -scenario-digest
			return 0
		}
	} else {
		n, meters = runFlags(out, cfg, opts.ParallelSegments)
	}
	if err := report(out, n, meters); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runFlags builds the flag-described deployment and workload, rides it,
// and prints the per-client results. It returns the network and the
// throughput meters (for -series).
func runFlags(out io.Writer, cfg wgtt.Config, parallel bool) (*wgtt.Network, []meterer) {
	n := wgtt.NewNetwork(cfg)
	lo, hi := cfg.RoadSpanX()

	var trajs []wgtt.Trajectory
	var dur wgtt.Duration
	if *mph == 0 {
		for i := 0; i < *clients; i++ {
			trajs = append(trajs, wgtt.Stationary{X: (lo + hi) / 2, Y: float64(-3 * i)})
		}
		dur = 10 * wgtt.Second
	} else {
		trajs = wgtt.Scenario(wgtt.Following, *clients, lo-5, 0, *mph)
		dur = wgtt.Duration((hi - lo + 10) / trajs[0].SpeedMps() * 1e9)
	}

	var udps []*wgtt.UDPDownlink
	var meters []meterer
	var videos []*wgtt.Video
	var pages []*wgtt.PageLoad
	var confs []*wgtt.Conference

	for _, traj := range trajs {
		c := n.AddClient(traj)
		switch *workloadN {
		case "udp":
			f := wgtt.NewUDPDownlink(n, c, *rate)
			n.Loop.After(100*wgtt.Millisecond, f.Start)
			udps = append(udps, f)
			meters = append(meters, f)
		case "tcp":
			f := wgtt.NewTCPDownlink(n, c, 0)
			n.Loop.After(100*wgtt.Millisecond, f.Start)
			meters = append(meters, f)
		case "video":
			v := wgtt.NewVideo(n, c)
			n.Loop.After(100*wgtt.Millisecond, v.Start)
			videos = append(videos, v)
		case "web":
			w := wgtt.NewPageLoad(n, c)
			n.Loop.After(100*wgtt.Millisecond, w.Start)
			pages = append(pages, w)
		case "conference":
			cf := wgtt.NewConference(n, c)
			if parallel {
				// Domain mode: the call's client-side timers must be
				// armed from the construction goroutine before the
				// domains start, not from the server loop mid-run.
				cf.Start()
			} else {
				n.Loop.After(100*wgtt.Millisecond, cf.Start)
			}
			confs = append(confs, cf)
		}
	}

	n.Run(dur)
	now := n.Loop.Now()

	fmt.Fprintf(out, "scheme=%v  speed=%v mph  clients=%d  workload=%s  sim=%.1fs\n\n",
		cfg.Scheme, *mph, *clients, *workloadN, now.Seconds())
	for i, m := range meters {
		fmt.Fprintf(out, "client %d: %.1f Mbit/s\n", i, m.Mbps(now))
	}
	for i, f := range udps {
		fmt.Fprintf(out, "client %d: loss %.3f\n", i, f.Sink.LossRate())
	}
	for i, v := range videos {
		fmt.Fprintf(out, "client %d: rebuffer ratio %.2f (%d stalls)\n", i, v.RebufferRatio(), v.Rebuffers())
	}
	for i, w := range pages {
		fmt.Fprintf(out, "client %d: page load %.2f s (done=%v)\n", i, w.LoadTimeSeconds(), w.Done())
	}
	for i, cf := range confs {
		fmt.Fprintf(out, "client %d: fps median %.0f, p85 %.0f\n", i,
			cf.FPSSamples.Quantile(0.5), cf.FPSSamples.Quantile(0.85))
	}
	return n, meters
}

// report prints what both kinds of run share once the ride is over:
// the switch summary, the -trace text view, the -trace-out timeline,
// anomalies, -metrics, and the -series throughput of client 0.
func report(out io.Writer, n *wgtt.Network, meters []meterer) error {
	if n.Cfg.Scheme == wgtt.SchemeWGTT {
		dups := 0
		for _, ctrl := range n.Controllers() {
			dups += ctrl.UplinkDuplicates
		}
		fmt.Fprintf(out, "\nswitches: %d issued, %d completed; uplink dups removed: %d\n",
			n.ProtocolCount(trace.OpIssue), n.ProtocolCount(trace.OpAck), dups)
		if len(n.Controllers()) > 1 {
			fmt.Fprintf(out, "cross-segment handoffs: %d exported, %d imported\n",
				n.ProtocolCount(trace.OpExport), n.ProtocolCount(trace.OpImport))
		}
		if nodes := n.FederationNodes(); len(nodes) > 0 {
			var rel, abandoned int
			for _, f := range nodes {
				rel += f.Relocates
				abandoned += f.RelocatesAbandoned
			}
			outage, random := n.TrunkFaultDrops()
			fmt.Fprintf(out, "federation: %d re-locates (%d abandoned), %d releases; trunk drops: %d outage, %d random; lost clients: %d\n",
				rel, abandoned, n.ProtocolCount(trace.OpRelease), outage, random, len(n.LostClients()))
		}
	}
	if *traceN > 0 {
		recs := n.FlightRecords()
		recs = recs[max(0, len(recs)-*traceN):]
		fmt.Fprintf(out, "\nswitch-protocol trace (last %d records):\n", len(recs))
		if err := trace.Dump(out, recs); err != nil {
			return err
		}
	}
	switch *traceOut {
	case "":
	case "-":
		if err := n.WriteChromeTrace(os.Stdout); err != nil {
			return err
		}
	default:
		if err := writeChromeFile(n, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nflight-recorder timeline: %s (load in ui.perfetto.dev)\n", *traceOut)
	}
	if anoms := n.FlightAnomalies(); len(anoms) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d anomalies triggered:\n", len(anoms))
		_ = trace.DumpAnomalies(os.Stderr, n.FlightRecords(), anoms, 5*wgtt.Millisecond)
	}
	if metrics.on {
		if snap := n.MetricsSnapshot(); snap != nil {
			fmt.Fprintln(out)
			if err := snap.Write(out, metrics.format); err != nil {
				return err
			}
		}
	}
	if *series && len(meters) > 0 {
		var ts, mbps []float64
		switch f := meters[0].(type) {
		case *wgtt.UDPDownlink:
			ts, mbps = f.Meter.Series()
		case *wgtt.TCPDownlink:
			ts, mbps = f.Meter.Series()
		}
		fmt.Fprintln(out, "\nt(s)  Mbit/s")
		for i := range ts {
			fmt.Fprintf(out, "%5.1f %6.1f\n", ts[i], mbps[i])
		}
	}
	return nil
}

// writeChromeFile writes the stitched flight-recorder timeline to path
// as Chrome trace_event JSON.
func writeChromeFile(n *wgtt.Network, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := n.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flagWasSet reports whether the named flag was explicitly set on the
// command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseGenSpec splits a -gen-scenario argument: SEED[:SIZE].
func parseGenSpec(s string) (int64, string, error) {
	seedStr, size, _ := strings.Cut(s, ":")
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad -gen-scenario %q: want SEED[:SIZE]", s)
	}
	return seed, size, nil
}

// runScenario is the declarative-scenario path: load or generate a
// scenario and compile it, then either print the content digest (the
// CI determinism gate diffs two of these) and return a nil network, or
// build and ride it and print the per-client results. cfg carries the
// flag-set knobs that override the compiled scenario.
func runScenario(out io.Writer, cfg wgtt.Config, parallel bool) (*wgtt.Network, error) {
	var spec *wgtt.ScenarioSpec
	var err error
	if *scenarioPath != "" {
		spec, err = wgtt.LoadScenario(*scenarioPath)
	} else {
		var seed int64
		var size string
		if seed, size, err = parseGenSpec(*genScenario); err == nil {
			spec, err = wgtt.GenerateScenario(seed, size)
		}
	}
	if err != nil {
		return nil, err
	}
	// The scenario file's own seed rules unless -seed was explicitly
	// given (the default would otherwise silently override it).
	var seed int64
	if flagWasSet("seed") {
		seed = cfg.Seed
	}
	comp, err := wgtt.CompileScenario(spec, seed)
	if err != nil {
		return nil, err
	}
	if *scenarioDigest {
		fmt.Println(comp.Digest())
		return nil, nil
	}
	r := wgtt.BuildScenarioRun(comp, wgtt.Options{Mutate: func(c *wgtt.Config) {
		c.Telemetry = cfg.Telemetry
		if parallel {
			c.Domains = core.DomainsParallel
		}
		wgtt.OverlayDatapath(c, cfg)
	}})
	r.Net.Run(r.Dur)
	now := r.Net.Loop.Now()

	fmt.Fprintf(out, "scenario=%s  seed=%d  segments=%d  sim=%.1fs\n\n",
		comp.Name, r.Cfg.Seed, len(r.Cfg.Segments), now.Seconds())
	for _, f := range r.Figures(nil) {
		fmt.Fprintf(out, "client %d: %.1f Mbit/s\n", f.ID, f.Mbps)
	}
	return r.Net, nil
}
