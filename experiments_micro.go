package wgtt

import (
	"fmt"
	"math"

	"wgtt/internal/channel"
	"wgtt/internal/csi"
	"wgtt/internal/phy"
	"wgtt/internal/rf"
	"wgtt/internal/scenario"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// Fig2Result reproduces the motivating observation: in the overlap zone
// between adjacent picocells, fast fading makes the best AP flip at
// millisecond timescales at driving speed.
type Fig2Result struct {
	TimesMs      []float64
	ESNR1, ESNR2 []float64
	Best         []int // 0 or 1
	Flips        int
	// MeanFlipGapMs is the average time between best-AP changes.
	MeanFlipGapMs float64
}

// Fig2BestAPSwitching samples two adjacent APs' instantaneous ESNR every
// millisecond while a client crosses their overlap zone at 25 mph.
func Fig2BestAPSwitching(opt Options) Fig2Result {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = opt.Seed
	cfg.NumAPs = 2
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	n := NewNetwork(cfg)
	n.AddClient(Drive(0, 0, 25)) // crossing the midpoint zone
	var r Fig2Result
	prev := -1
	var lastFlip float64
	var gaps []float64
	sampleEvery(n, Millisecond, func() {
		t := n.Loop.Now().Milliseconds()
		e1 := n.LinkESNRdB(0, 0)
		e2 := n.LinkESNRdB(1, 0)
		best := 0
		if e2 > e1 {
			best = 1
		}
		r.TimesMs = append(r.TimesMs, t)
		r.ESNR1 = append(r.ESNR1, e1)
		r.ESNR2 = append(r.ESNR2, e2)
		r.Best = append(r.Best, best)
		if prev >= 0 && best != prev {
			r.Flips++
			if lastFlip > 0 {
				gaps = append(gaps, t-lastFlip)
			}
			lastFlip = t
		}
		prev = best
	})
	n.Run(1200 * Millisecond) // the ~8 m around the midpoint
	if len(gaps) > 0 {
		sum := 0.0
		for _, g := range gaps {
			sum += g
		}
		r.MeanFlipGapMs = sum / float64(len(gaps))
	}
	return r
}

// String summarizes the sampling.
func (r Fig2Result) String() string {
	return fmt.Sprintf(
		"Fig 2 — vehicular picocell regime at 25 mph\n  best AP flipped %d times in %.0f ms (mean gap %.1f ms)\n",
		r.Flips, r.TimesMs[len(r.TimesMs)-1]-r.TimesMs[0], r.MeanFlipGapMs)
}

// Fig4Result reproduces the §2 motivation experiment: stock 802.11r
// between two APs at 20 and 5 mph.
type Fig4Result struct {
	SpeedsMPH []float64
	// HandoverCompleted reports whether the client ever reassociated.
	HandoverCompleted []bool
	// DeliveredMbps and PotentialMbps average over the drive; their
	// difference is the paper's "accumulated channel capacity loss".
	DeliveredMbps, PotentialMbps []float64
	CapacityLossMbps             []float64
}

// Fig4RoamingFailure drives a client past two stock-802.11r APs.
func Fig4RoamingFailure(opt Options) Fig4Result {
	res := Fig4Result{SpeedsMPH: []float64{20, 5}}
	type outcome struct {
		handover             bool
		delivered, potential float64
	}
	jobs := make([]func() outcome, len(res.SpeedsMPH))
	for i, mph := range res.SpeedsMPH {
		jobs[i] = func() outcome {
			cfg := DefaultConfig(SchemeStock80211r)
			cfg.Seed = opt.Seed
			cfg.NumAPs = 2
			if opt.Mutate != nil {
				opt.Mutate(&cfg)
			}
			r := crossingRide(cfg, mph, scenario.WorkloadUDP, scenario.DefaultRateMbps)
			n := r.Net
			var pot []float64
			sampleEvery(n, 20*Millisecond, potentialMbps(n, 0, &pot))
			startAP := n.ServingAP(0)
			n.Run(r.Dur)
			return outcome{
				handover:  n.ServingAP(0) != startAP,
				delivered: r.goodputs()[0],
				potential: mean(pot),
			}
		}
	}
	for _, o := range runAll(opt, jobs) {
		res.HandoverCompleted = append(res.HandoverCompleted, o.handover)
		res.DeliveredMbps = append(res.DeliveredMbps, o.delivered)
		res.PotentialMbps = append(res.PotentialMbps, o.potential)
		res.CapacityLossMbps = append(res.CapacityLossMbps, o.potential-o.delivered)
	}
	return res
}

// String renders the comparison.
func (r Fig4Result) String() string {
	rows := make([][]string, len(r.SpeedsMPH))
	for i := range r.SpeedsMPH {
		rows[i] = []string{
			f1(r.SpeedsMPH[i]),
			fmt.Sprint(r.HandoverCompleted[i]),
			f1(r.DeliveredMbps[i]), f1(r.PotentialMbps[i]), f1(r.CapacityLossMbps[i]),
		}
	}
	return "Fig 4 — stock 802.11r between two APs\n" + fmtTable(
		[]string{"mph", "handover", "delivered", "potential", "capacity loss"}, rows)
}

// Fig10Result is the ESNR heatmap of the road.
type Fig10Result struct {
	Xs, Ys []float64
	// ESNR[ap][yi][xi] in dB (large-scale, fading smoothed out like the
	// paper's measured heatmap).
	ESNR [][][]float64
	// OverlapM is the mean coverage overlap between adjacent APs at
	// 10 dB ESNR on the near lane.
	OverlapM float64
}

// Fig10ESNRHeatmap sweeps the road plane and evaluates every AP's
// large-scale ESNR.
func Fig10ESNRHeatmap(opt Options) Fig10Result {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Seed = opt.Seed
	if opt.Mutate != nil {
		opt.Mutate(&cfg)
	}
	var r Fig10Result
	for x := -10.0; x <= 62.5; x += 1.25 {
		r.Xs = append(r.Xs, x)
	}
	for y := -4.0; y <= 4.0; y += 1.0 {
		r.Ys = append(r.Ys, y)
	}
	model, err := cfg.ChannelModel()
	if err != nil {
		panic(err)
	}
	rng := sim.NewRNG(cfg.Seed)
	links := make([]channel.Link, cfg.NumAPs)
	for ap := 0; ap < cfg.NumAPs; ap++ {
		links[ap] = model.NewLink(cfg.APPosition(ap), rng.Fork(fmt.Sprint("hm", ap)))
		links[ap].DisableFading()
	}
	covered := make([][2]float64, cfg.NumAPs) // per AP: [min,max] x with ESNR≥10 at y=0
	for ap := range covered {
		covered[ap] = [2]float64{math.Inf(1), math.Inf(-1)}
	}
	for ap := 0; ap < cfg.NumAPs; ap++ {
		var grid [][]float64
		for _, y := range r.Ys {
			var row []float64
			for _, x := range r.Xs {
				e := links[ap].MeanSNRdB(0, rf.Position{X: x, Y: y})
				row = append(row, e)
				if y == 0 && e >= 10 {
					if x < covered[ap][0] {
						covered[ap][0] = x
					}
					if x > covered[ap][1] {
						covered[ap][1] = x
					}
				}
			}
			grid = append(grid, row)
		}
		r.ESNR = append(r.ESNR, grid)
	}
	overlaps := 0.0
	cnt := 0
	for ap := 0; ap+1 < cfg.NumAPs; ap++ {
		o := covered[ap][1] - covered[ap+1][0]
		if !math.IsInf(o, 0) {
			overlaps += o
			cnt++
		}
	}
	if cnt > 0 {
		r.OverlapM = overlaps / float64(cnt)
	}
	return r
}

// String summarizes coverage.
func (r Fig10Result) String() string {
	peak := math.Inf(-1)
	for _, grid := range r.ESNR {
		for _, row := range grid {
			for _, v := range row {
				peak = math.Max(peak, v)
			}
		}
	}
	return fmt.Sprintf(
		"Fig 10 — ESNR heatmap: peak %.1f dB, adjacent-AP coverage overlap %.1f m at 10 dB\n",
		peak, r.OverlapM)
}

// Table1Result reproduces the switching-protocol execution time.
type Table1Result struct {
	RatesMbps []float64
	MeanMs    []float64
	StdMs     []float64
	Switches  []int
}

// Table1SwitchTime measures stop→ack latency over a 15 mph drive at
// several offered loads.
func Table1SwitchTime(opt Options, rates []float64) Table1Result {
	if len(rates) == 0 {
		rates = []float64{50, 60, 70, 80, 90}
	}
	var res Table1Result
	res.RatesMbps = rates
	type outcome struct {
		meanMs, stdMs float64
		switches      int
	}
	jobs := make([]func() outcome, len(rates))
	for i, rate := range rates {
		jobs[i] = func() outcome {
			r := crossingRide(buildConfig(SchemeWGTT, opt), 15, scenario.WorkloadUDP, rate)
			r.Net.Run(r.Dur)
			done := r.Net.FlightRecorder(0).Spans().Completed()
			m, s := meanStdMs(done)
			return outcome{meanMs: m, stdMs: s, switches: len(done)}
		}
	}
	for _, o := range runAll(opt, jobs) {
		res.MeanMs = append(res.MeanMs, o.meanMs)
		res.StdMs = append(res.StdMs, o.stdMs)
		res.Switches = append(res.Switches, o.switches)
	}
	return res
}

// String renders Table 1.
func (r Table1Result) String() string {
	rows := make([][]string, len(r.RatesMbps))
	for i := range r.RatesMbps {
		rows[i] = []string{
			f1(r.RatesMbps[i]), f1(r.MeanMs[i]), f1(r.StdMs[i]), fmt.Sprint(r.Switches[i]),
		}
	}
	return "Table 1 — switching protocol execution time\n" + fmtTable(
		[]string{"offered Mb/s", "mean ms", "std ms", "switches"}, rows)
}

// Table3Result reproduces the link-layer ACK collision rate.
type Table3Result struct {
	RatesMbps []float64
	// CollisionPct is BA collisions at the client per uplink PPDU, in
	// percent.
	CollisionPct []float64
}

// Table3AckCollisions sends uplink UDP at several rates from a client at
// 15 mph, counting block-ACK collisions observed at the client.
func Table3AckCollisions(opt Options, rates []float64) Table3Result {
	if len(rates) == 0 {
		rates = []float64{70, 80, 90}
	}
	var res Table3Result
	res.RatesMbps = rates
	jobs := make([]func() float64, len(rates))
	for i, rate := range rates {
		jobs[i] = func() float64 {
			n := buildNetwork(SchemeWGTT, opt)
			traj, dur := scenario.Crossing(&n.Cfg, 15)
			c := n.AddClient(traj)
			f := NewUDPUplink(n, c, 9100, rate)
			startAfterWarmup(n, f.Start)
			n.Run(dur)
			if c.UplinkPPDUs == 0 {
				return 0
			}
			return 100 * float64(c.BACollisions) / float64(c.UplinkPPDUs)
		}
	}
	res.CollisionPct = runAll(opt, jobs)
	return res
}

// String renders Table 3.
func (r Table3Result) String() string {
	rows := make([][]string, len(r.RatesMbps))
	for i := range r.RatesMbps {
		rows[i] = []string{f1(r.RatesMbps[i]), fmt.Sprintf("%.4f", r.CollisionPct[i])}
	}
	return "Table 3 — link-layer ACK collision rate at the client (%)\n" + fmtTable(
		[]string{"uplink Mb/s", "collision %"}, rows)
}

// Fig21Result reproduces the window-size sweep.
type Fig21Result struct {
	WindowsMs []float64
	// LossRate is 1 − delivered/potential: the capacity loss rate the
	// paper minimizes at W = 10 ms.
	LossRate []float64
}

// Fig21WindowSize sweeps the AP-selection window W at 15 mph.
func Fig21WindowSize(opt Options, windowsMs []float64) Fig21Result {
	if len(windowsMs) == 0 {
		windowsMs = []float64{1, 2, 5, 10, 20, 50, 100}
	}
	var res Fig21Result
	res.WindowsMs = windowsMs
	jobs := make([]func() float64, len(windowsMs))
	for i, w := range windowsMs {
		jobs[i] = func() float64 {
			cfg := buildConfig(SchemeWGTT, Options{
				Seed: opt.Seed,
				Mutate: func(c *Config) {
					c.Controller.Window = Duration(w * float64(Millisecond))
					if opt.Mutate != nil {
						opt.Mutate(c)
					}
				},
			})
			r := crossingRide(cfg, 15, scenario.WorkloadUDP, scenario.DefaultRateMbps)
			n := r.Net
			var pot []float64
			sampleEvery(n, 20*Millisecond, potentialMbps(n, 0, &pot))
			n.Run(r.Dur)
			potMean := mean(pot)
			cap := math.Min(potMean, scenario.DefaultRateMbps)
			loss := 1 - r.goodputs()[0]/cap
			if loss < 0 {
				loss = 0
			}
			return loss
		}
	}
	res.LossRate = runAll(opt, jobs)
	return res
}

// String renders the sweep.
func (r Fig21Result) String() string {
	rows := make([][]string, len(r.WindowsMs))
	for i := range r.WindowsMs {
		rows[i] = []string{f1(r.WindowsMs[i]), fmt.Sprintf("%.3f", r.LossRate[i])}
	}
	return "Fig 21 — capacity loss rate vs selection window W\n" + fmtTable(
		[]string{"W ms", "loss rate"}, rows)
}

// Fig22Result reproduces the hysteresis sweep.
type Fig22Result struct {
	HysteresisMs []float64
	TCPMbps      []float64
	Switches     []int
}

// Fig22Hysteresis sweeps the switching time hysteresis at 15 mph under
// bulk TCP.
func Fig22Hysteresis(opt Options, hystMs []float64) Fig22Result {
	if len(hystMs) == 0 {
		hystMs = []float64{40, 80, 120}
	}
	var res Fig22Result
	res.HysteresisMs = hystMs
	type outcome struct {
		mbps     float64
		switches int
	}
	jobs := make([]func() outcome, len(hystMs))
	for i, h := range hystMs {
		jobs[i] = func() outcome {
			cfg := buildConfig(SchemeWGTT, Options{
				Seed: opt.Seed,
				Mutate: func(c *Config) {
					c.Controller.Hysteresis = Duration(h * float64(Millisecond))
					if opt.Mutate != nil {
						opt.Mutate(c)
					}
				},
			})
			r := crossingRide(cfg, 15, scenario.WorkloadTCP, 0)
			r.Net.Run(r.Dur)
			return outcome{mbps: r.goodputs()[0], switches: r.Net.ProtocolCount(trace.OpAck)}
		}
	}
	for _, o := range runAll(opt, jobs) {
		res.TCPMbps = append(res.TCPMbps, o.mbps)
		res.Switches = append(res.Switches, o.switches)
	}
	return res
}

// String renders the sweep.
func (r Fig22Result) String() string {
	rows := make([][]string, len(r.HysteresisMs))
	for i := range r.HysteresisMs {
		rows[i] = []string{f1(r.HysteresisMs[i]), f1(r.TCPMbps[i]), fmt.Sprint(r.Switches[i])}
	}
	return "Fig 22 — TCP throughput vs switching hysteresis (15 mph)\n" + fmtTable(
		[]string{"hysteresis ms", "TCP Mb/s", "switches"}, rows)
}

// Fig23Result reproduces the AP-density comparison, extended with a
// segmented deployment: a dense town-center segment chained to a sparse
// outskirts segment, each behind its own controller, with the client
// handed off between them mid-ride.
type Fig23Result struct {
	SpeedsMPH     []float64
	DenseMbps     []float64 // 7.5 m spacing
	SparseMbps    []float64 // 15 m spacing
	SegmentedMbps []float64 // dense 7.5 m segment -> sparse 15 m segment
	DenseSpacing  float64
	SparseSpace   float64
}

// Fig23APDensity measures UDP throughput across speeds in a dense and a
// sparse deployment.
func Fig23APDensity(opt Options, speeds []float64) Fig23Result {
	if len(speeds) == 0 {
		speeds = []float64{5, 15, 25}
	}
	res := Fig23Result{SpeedsMPH: speeds, DenseSpacing: 7.5, SparseSpace: 15}
	run := func(mutate func(*Config), mph float64) float64 {
		cfg := buildConfig(SchemeWGTT, Options{
			Seed: opt.Seed,
			Mutate: func(c *Config) {
				mutate(c)
				if opt.Mutate != nil {
					opt.Mutate(c)
				}
			},
		})
		r := crossingRide(cfg, mph, scenario.WorkloadUDP, scenario.DefaultRateMbps)
		r.Net.Run(r.Dur)
		return r.goodputs()[0]
	}
	uniform := func(spacing float64) func(*Config) {
		return func(c *Config) { c.APSpacing = spacing }
	}
	segmented := func(c *Config) {
		c.Segments = []SegmentSpec{
			{NumAPs: c.NumAPs, APSpacing: res.DenseSpacing},
			{NumAPs: c.NumAPs, APSpacing: res.SparseSpace},
		}
	}
	jobs := make([]func() float64, 0, 3*len(speeds))
	for _, mph := range speeds {
		jobs = append(jobs,
			func() float64 { return run(uniform(res.DenseSpacing), mph) },
			func() float64 { return run(uniform(res.SparseSpace), mph) },
			func() float64 { return run(segmented, mph) })
	}
	out := runAll(opt, jobs)
	for i := range speeds {
		res.DenseMbps = append(res.DenseMbps, out[3*i])
		res.SparseMbps = append(res.SparseMbps, out[3*i+1])
		res.SegmentedMbps = append(res.SegmentedMbps, out[3*i+2])
	}
	return res
}

// String renders the comparison.
func (r Fig23Result) String() string {
	rows := make([][]string, len(r.SpeedsMPH))
	for i := range r.SpeedsMPH {
		rows[i] = []string{f1(r.SpeedsMPH[i]), f1(r.DenseMbps[i]), f1(r.SparseMbps[i]),
			f1(r.SegmentedMbps[i])}
	}
	return "Fig 23 — UDP throughput vs AP density (Mbit/s)\n" + fmtTable(
		[]string{"mph", "dense 7.5 m", "sparse 15 m", "dense+sparse segments"}, rows)
}

// mean of a slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// meanStdMs returns the mean and standard deviation of completed
// handoffs' issue→ack latency, in milliseconds.
func meanStdMs(hs []telemetry.SpanRecord) (m, s float64) {
	if len(hs) == 0 {
		return 0, 0
	}
	for _, h := range hs {
		m += float64(h.AckedAt.Sub(h.IssuedAt))
	}
	m /= float64(len(hs))
	for _, h := range hs {
		d := float64(h.AckedAt.Sub(h.IssuedAt)) - m
		s += d * d
	}
	s = math.Sqrt(s / float64(len(hs)))
	return m / float64(Millisecond), s / float64(Millisecond)
}

var (
	_ = csi.RefModulation
	_ = phy.NumRates
)
