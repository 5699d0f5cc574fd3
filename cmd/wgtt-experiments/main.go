// Command wgtt-experiments regenerates any table or figure from the
// paper's evaluation (§5) against the simulated testbed.
//
// The independent runs inside each experiment fan out across CPU cores
// by default; results are bit-identical to -workers 1.
//
// Usage:
//
//	wgtt-experiments -list
//	wgtt-experiments -exp fig13 [-seed 7] [-workers 4]
//	wgtt-experiments -exp all -workers 1
//	wgtt-experiments -run 'fig*'          # glob over names and tags
//	wgtt-experiments -run table -list     # filtered listing
package main

import (
	"flag"
	"fmt"
	"os"
	"path"
	"runtime"
	"runtime/pprof"
	"strings"

	"wgtt"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		runPat  = flag.String("run", "", "run the experiments whose name or tag matches this glob (e.g. 'fig*', 'table', 'micro')")
		seed    = flag.Int64("seed", 1, "simulation seed")
		list    = flag.Bool("list", false, "list experiments")
		workers = flag.Int("workers", 0, "cap parallel workers per experiment (0 = GOMAXPROCS; 1 runs serially, for debugging/profiling)")

		parallelSegments = flag.Bool("parallel-segments", false,
			"run each multi-segment network's segments as their own event-loop domains, synchronized at the trunks")

		metrics    = flag.Bool("metrics", false, "print a per-case telemetry summary after each experiment")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list || (*exp == "" && *runPat == "") {
		fmt.Println("experiments:")
		for _, e := range wgtt.Experiments() {
			if *runPat != "" && !matches(e, *runPat) {
				continue
			}
			fmt.Printf("  %-10s [%s] %s\n", e.Name, strings.Join(e.Tags, ","), e.Desc)
		}
		if *exp == "" && *runPat == "" && !*list {
			os.Exit(2)
		}
		return
	}

	opt := wgtt.Options{Seed: *seed, Exec: wgtt.Exec{Workers: *workers, ParallelSegments: *parallelSegments}}
	var collector *wgtt.MetricsCollector
	if *metrics {
		collector = wgtt.NewMetricsCollector()
		opt.Metrics = collector
	}
	run := func(e wgtt.Experiment) {
		fmt.Println(strings.Repeat("=", 64))
		fmt.Println(e.Run(opt))
		if collector != nil {
			if s := collector.Summary(); s != "" {
				fmt.Println(s)
			}
			collector.Reset()
		}
	}

	if *runPat != "" {
		n := 0
		for _, e := range wgtt.Experiments() {
			if matches(e, *runPat) {
				run(e)
				n++
			}
		}
		if n == 0 {
			fmt.Fprintf(os.Stderr, "no experiment name or tag matches %q (try -list)\n", *runPat)
			os.Exit(2)
		}
		return
	}
	if *exp == "all" {
		for _, e := range wgtt.Experiments() {
			run(e)
		}
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		e, ok := wgtt.FindExperiment(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", name)
			os.Exit(2)
		}
		run(e)
	}
}

// matches reports whether the glob (case-insensitive) matches the
// experiment's name or any of its tags.
func matches(e wgtt.Experiment, glob string) bool {
	glob = strings.ToLower(glob)
	ok, err := path.Match(glob, strings.ToLower(e.Name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -run pattern %q: %v\n", glob, err)
		os.Exit(2)
	}
	if ok {
		return true
	}
	for _, tag := range e.Tags {
		if ok, _ := path.Match(glob, strings.ToLower(tag)); ok {
			return true
		}
	}
	return false
}
