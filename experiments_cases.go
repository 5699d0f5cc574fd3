package wgtt

import (
	"fmt"

	"wgtt/internal/scenario"
	"wgtt/internal/workload"
)

// Table4Result reproduces the video rebuffering case study.
type Table4Result struct {
	SpeedsMPH []float64
	WGTT      []float64 // rebuffer ratio
	Baseline  []float64
}

// Table4VideoRebuffer streams HD video (1.5 s prebuffer) to a client
// crossing the array at each speed under both schemes.
func Table4VideoRebuffer(opt Options, speeds []float64) Table4Result {
	if len(speeds) == 0 {
		speeds = []float64{5, 10, 15, 20}
	}
	res := Table4Result{SpeedsMPH: speeds}
	run := func(scheme Scheme, mph float64) float64 {
		n := buildNetwork(scheme, opt)
		traj, dur := scenario.Crossing(&n.Cfg, mph)
		c := n.AddClient(traj)
		v := workload.NewVideo(n, c, workload.DefaultVideoConfig())
		startAfterWarmup(n, v.Start)
		n.Run(dur)
		return v.RebufferRatio()
	}
	jobs := make([]func() float64, 0, 2*len(speeds))
	for _, mph := range speeds {
		jobs = append(jobs,
			func() float64 { return run(SchemeWGTT, mph) },
			func() float64 { return run(SchemeEnhanced80211r, mph) })
	}
	out := runAll(opt, jobs)
	for i := range speeds {
		res.WGTT = append(res.WGTT, out[2*i])
		res.Baseline = append(res.Baseline, out[2*i+1])
	}
	return res
}

// String renders Table 4.
func (r Table4Result) String() string {
	rows := make([][]string, len(r.SpeedsMPH))
	for i := range r.SpeedsMPH {
		rows[i] = []string{
			f1(r.SpeedsMPH[i]),
			fmt.Sprintf("%.2f", r.WGTT[i]),
			fmt.Sprintf("%.2f", r.Baseline[i]),
		}
	}
	return "Table 4 — video rebuffer ratio\n" + fmtTable(
		[]string{"mph", "WGTT", "Enhanced 802.11r"}, rows)
}

// Fig24Result reproduces the conferencing frame-rate case study.
type Fig24Result struct {
	SpeedsMPH []float64
	// 85th-percentile downlink fps per app model and speed.
	Skype85th, Hangouts85th []float64
	// Median fps for context.
	SkypeMedian, HangoutsMedian []float64
}

// Fig24ConferencingFPS runs Skype-like (30 fps, high bitrate) and
// Hangouts-like (60 fps, reduced resolution) calls at each speed under
// WGTT.
func Fig24ConferencingFPS(opt Options, speeds []float64) Fig24Result {
	if len(speeds) == 0 {
		speeds = []float64{5, 15}
	}
	res := Fig24Result{SpeedsMPH: speeds}
	run := func(cfg workload.ConferenceConfig, mph float64) (p85, med float64) {
		n := buildNetwork(SchemeWGTT, opt)
		traj, dur := scenario.Crossing(&n.Cfg, mph)
		c := n.AddClient(traj)
		conf := workload.NewConference(n, c, cfg)
		startAfterWarmup(n, conf.Start)
		n.Run(dur)
		// The paper reads the CDF at the 85th percentile; with a CDF
		// of fps samples, that is the value below which 85% of the
		// per-second readings fall.
		return conf.FPSSamples.Quantile(0.85), conf.FPSSamples.Quantile(0.5)
	}
	type fps struct{ p85, med float64 }
	jobs := make([]func() fps, 0, 2*len(speeds))
	for _, mph := range speeds {
		jobs = append(jobs,
			func() fps { p, m := run(workload.SkypeLike(), mph); return fps{p, m} },
			func() fps { p, m := run(workload.HangoutsLike(), mph); return fps{p, m} })
	}
	out := runAll(opt, jobs)
	for i := range speeds {
		res.Skype85th = append(res.Skype85th, out[2*i].p85)
		res.SkypeMedian = append(res.SkypeMedian, out[2*i].med)
		res.Hangouts85th = append(res.Hangouts85th, out[2*i+1].p85)
		res.HangoutsMedian = append(res.HangoutsMedian, out[2*i+1].med)
	}
	return res
}

// String renders the figure.
func (r Fig24Result) String() string {
	rows := make([][]string, len(r.SpeedsMPH))
	for i := range r.SpeedsMPH {
		rows[i] = []string{
			f1(r.SpeedsMPH[i]),
			f1(r.Skype85th[i]), f1(r.SkypeMedian[i]),
			f1(r.Hangouts85th[i]), f1(r.HangoutsMedian[i]),
		}
	}
	return "Fig 24 — conferencing downlink fps under WGTT\n" + fmtTable(
		[]string{"mph", "skype p85", "skype med", "hangouts p85", "hangouts med"}, rows)
}

// Table5Result reproduces the web page load case study.
type Table5Result struct {
	SpeedsMPH []float64
	WGTT      []float64 // seconds; +Inf = never loaded
	Baseline  []float64
}

// Table5WebPageLoad fetches the 2.1 MB page at each speed under both
// schemes. Loads that outlast the drive report +Inf, like the paper's ∞
// cells.
func Table5WebPageLoad(opt Options, speeds []float64) Table5Result {
	if len(speeds) == 0 {
		speeds = []float64{5, 10, 15, 20}
	}
	res := Table5Result{SpeedsMPH: speeds}
	run := func(scheme Scheme, mph float64) float64 {
		n := buildNetwork(scheme, opt)
		traj, dur := scenario.Crossing(&n.Cfg, mph)
		c := n.AddClient(traj)
		// The passenger browses repeatedly during the whole drive, so
		// loads land in every part of the array, including any
		// handover dead zones.
		b := workload.NewBrowser(n, c, 500*Millisecond)
		startAfterWarmup(n, b.Start)
		n.Run(dur)
		b.Finish()
		return b.MeanLoadSeconds()
	}
	jobs := make([]func() float64, 0, 2*len(speeds))
	for _, mph := range speeds {
		jobs = append(jobs,
			func() float64 { return run(SchemeWGTT, mph) },
			func() float64 { return run(SchemeEnhanced80211r, mph) })
	}
	out := runAll(opt, jobs)
	for i := range speeds {
		res.WGTT = append(res.WGTT, out[2*i])
		res.Baseline = append(res.Baseline, out[2*i+1])
	}
	return res
}

// String renders Table 5.
func (r Table5Result) String() string {
	rows := make([][]string, len(r.SpeedsMPH))
	for i := range r.SpeedsMPH {
		rows[i] = []string{f1(r.SpeedsMPH[i]), f2(r.WGTT[i]), f2(r.Baseline[i])}
	}
	return "Table 5 — mean 2.1 MB page load time while browsing (s)\n" + fmtTable(
		[]string{"mph", "WGTT", "Enhanced 802.11r"}, rows)
}

// AblationResult quantifies each WGTT mechanism's contribution by
// disabling it (the design choices DESIGN.md calls out).
type AblationResult struct {
	Labels []string
	// UDPMbps and TCPMbps are single-client 15 mph drive goodputs.
	UDPMbps []float64
	TCPMbps []float64
}

// Ablations runs the 15 mph drive with each mechanism disabled in turn.
// Each case applies its own config change, then the caller's Mutate;
// with Options.Metrics set, it records under "<variant> <transport>".
func Ablations(opt Options) AblationResult {
	return ablations(opt, nil)
}

// ablations is the parameterized form; a non-nil only slice restricts the
// run to the named variants.
func ablations(opt Options, only []string) AblationResult {
	cases := []struct {
		label  string
		mutate func(*Config)
	}{
		{"full WGTT", nil},
		{"CSI-seeded rates (ext)", func(c *Config) { c.AP.SeedRatesFromCSI = true }},
		{"no BA forwarding", func(c *Config) { c.AP.ForwardBAs = false }},
		{"no queue flush on start", func(c *Config) { c.AP.FlushOnStart = false }},
		{"no uplink dedup", func(c *Config) { c.Controller.Dedup = false }},
		{"mean-ESNR selection", func(c *Config) { c.Controller.Policy = 1 /* SelectMean */ }},
		{"latest-sample selection", func(c *Config) { c.Controller.Policy = 2 /* SelectLatest */ }},
	}
	if only != nil {
		keep := cases[:0]
		for _, tc := range cases {
			for _, want := range only {
				if tc.label == want {
					keep = append(keep, tc)
					break
				}
			}
		}
		cases = keep
	}
	var res AblationResult
	var rides []goodputRide
	for _, tc := range cases {
		res.Labels = append(res.Labels, tc.label)
		for _, tcp := range []bool{false, true} {
			rides = append(rides, goodputRide{
				scheme: SchemeWGTT, tcp: tcp, mutate: tc.mutate, variant: tc.label, place: crossAt(15),
			})
		}
	}
	mbps := meanGoodputs(opt, rides)
	for i := range cases {
		res.UDPMbps = append(res.UDPMbps, mbps[2*i])
		res.TCPMbps = append(res.TCPMbps, mbps[2*i+1])
	}
	return res
}

// String renders the ablation table.
func (r AblationResult) String() string {
	rows := make([][]string, len(r.Labels))
	for i := range r.Labels {
		rows[i] = []string{r.Labels[i], f1(r.UDPMbps[i]), f1(r.TCPMbps[i])}
	}
	return "Ablations — 15 mph single-client drive (Mbit/s)\n" + fmtTable(
		[]string{"variant", "UDP", "TCP"}, rows)
}
