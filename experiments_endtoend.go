package wgtt

import (
	"fmt"

	"wgtt/internal/scenario"
	"wgtt/internal/stats"
	"wgtt/internal/workload"
)

// Fig13Result reproduces "TCP and UDP throughput when the client moves at
// different speeds".
type Fig13Result struct {
	SpeedsMPH []float64
	// [speed] goodput in Mbit/s.
	WGTTTCP, WGTTUDP         []float64
	BaselineTCP, BaselineUDP []float64
}

// Fig13ThroughputVsSpeed runs single-client drive-bys at each speed under
// both schemes and both transports. Speed 0 is the parked reference the
// paper's figure includes as "static".
func Fig13ThroughputVsSpeed(opt Options, speeds []float64) Fig13Result {
	if len(speeds) == 0 {
		speeds = []float64{0, 5, 15, 25, 35}
	}
	res := Fig13Result{SpeedsMPH: speeds}
	parked := func(cfg *Config) ([]Trajectory, Duration) {
		lo, hi := cfg.RoadSpanX()
		return []Trajectory{Stationary{X: (lo + hi) / 2, Y: 0}}, 10 * Second
	}
	var rides []goodputRide
	for _, mph := range speeds {
		place := crossAt(mph)
		if mph == 0 {
			place = parked
		}
		rides = append(rides, schemeRides(place)...)
	}
	mbps := meanGoodputs(opt, rides)
	for i := range speeds {
		res.WGTTTCP = append(res.WGTTTCP, mbps[4*i])
		res.WGTTUDP = append(res.WGTTUDP, mbps[4*i+1])
		res.BaselineTCP = append(res.BaselineTCP, mbps[4*i+2])
		res.BaselineUDP = append(res.BaselineUDP, mbps[4*i+3])
	}
	return res
}

// String renders the figure as a table.
func (r Fig13Result) String() string {
	rows := make([][]string, len(r.SpeedsMPH))
	for i, s := range r.SpeedsMPH {
		rows[i] = []string{
			f1(s), f1(r.WGTTTCP[i]), f1(r.BaselineTCP[i]),
			f1(r.WGTTUDP[i]), f1(r.BaselineUDP[i]),
			f2(r.WGTTTCP[i] / r.BaselineTCP[i]), f2(r.WGTTUDP[i] / r.BaselineUDP[i]),
		}
	}
	return "Fig 13 — throughput vs speed (Mbit/s)\n" + fmtTable(
		[]string{"mph", "WGTT-TCP", "11r-TCP", "WGTT-UDP", "11r-UDP", "xTCP", "xUDP"}, rows)
}

// TimeseriesResult reproduces Figs. 14/15: goodput over time plus the AP
// the client is attached to, for both schemes, during a 15 mph drive.
type TimeseriesResult struct {
	Proto string
	// BinSeconds is the throughput bin width.
	BinSeconds float64
	WGTT       SchemeSeries
	Baseline   SchemeSeries
}

// SchemeSeries is one scheme's timeseries.
type SchemeSeries struct {
	T        []float64 // bin start, seconds
	Mbps     []float64
	APTimes  []float64 // association sample times
	APs      []int     // serving/associated AP per sample (-1 none)
	Switches int
	MeanMbps float64
}

// figTimeseries runs one scheme.
func figTimeseries(scheme Scheme, opt Options, tcp bool) SchemeSeries {
	r := crossingRide(buildConfig(scheme, opt, nil), 15, bulk(tcp), scenario.DefaultRateMbps)
	n, meter := r.Net, r.meters[0]
	var s SchemeSeries
	lastAP := -2
	sampleEvery(n, 50*Millisecond, func() {
		ap := n.ServingAP(0)
		s.APTimes = append(s.APTimes, n.Loop.Now().Seconds())
		s.APs = append(s.APs, ap)
		if ap != lastAP && lastAP != -2 {
			s.Switches++
		}
		lastAP = ap
	})
	n.Run(r.Dur)
	s.T, s.Mbps = meter.Series()
	s.MeanMbps = meter.MeanMbps(n.Loop.Now())
	return s
}

// figTimeseriesBoth runs the WGTT and baseline timeseries as two
// independent runs on the experiment runner.
func figTimeseriesBoth(opt Options, tcp bool) (wgttS, base SchemeSeries) {
	out := runAll(opt, []func() SchemeSeries{
		func() SchemeSeries { return figTimeseries(SchemeWGTT, opt, tcp) },
		func() SchemeSeries { return figTimeseries(SchemeEnhanced80211r, opt, tcp) },
	})
	return out[0], out[1]
}

// Fig14TCPTimeseries reproduces Fig. 14 (TCP during a 15 mph drive).
func Fig14TCPTimeseries(opt Options) TimeseriesResult {
	w, b := figTimeseriesBoth(opt, true)
	return TimeseriesResult{Proto: "TCP", BinSeconds: 0.1, WGTT: w, Baseline: b}
}

// Fig15UDPTimeseries reproduces Fig. 15 (UDP during a 15 mph drive).
func Fig15UDPTimeseries(opt Options) TimeseriesResult {
	w, b := figTimeseriesBoth(opt, false)
	return TimeseriesResult{Proto: "UDP", BinSeconds: 0.1, WGTT: w, Baseline: b}
}

// String summarizes the two curves.
func (r TimeseriesResult) String() string {
	figure := "14"
	if r.Proto == "UDP" {
		figure = "15"
	}
	return fmt.Sprintf(
		"Fig %s — %s timeseries at 15 mph\n  WGTT:     mean %.1f Mbit/s, %d AP changes\n  Enh-11r:  mean %.1f Mbit/s, %d AP changes\n",
		figure, r.Proto, r.WGTT.MeanMbps, r.WGTT.Switches, r.Baseline.MeanMbps, r.Baseline.Switches)
}

// Fig16Result reproduces the link bit-rate CDFs.
type Fig16Result struct {
	// MPDUs per MCS rate, per scheme, summed over TCP+UDP runs.
	WGTTRateMbps, BaselineRateMbps []float64
	WGTTCount, BaselineCount       []int
	WGTT90th, Baseline90th         float64
}

// Fig16BitrateCDF measures the PHY rate distribution (per transmitted
// MPDU) during 15 mph drives under both schemes.
func Fig16BitrateCDF(opt Options) Fig16Result {
	// One independent run per scheme × transport; each reports its MPDU
	// counts per MCS, combined per scheme afterwards.
	type runKey struct {
		scheme Scheme
		tcp    bool
	}
	keys := []runKey{
		{SchemeWGTT, true}, {SchemeWGTT, false},
		{SchemeEnhanced80211r, true}, {SchemeEnhanced80211r, false},
	}
	jobs := make([]func() [8]int, len(keys))
	for i, k := range keys {
		jobs[i] = func() (counts [8]int) {
			r := crossingRide(buildConfig(k.scheme, opt, nil), 15, bulk(k.tcp), scenario.DefaultRateMbps)
			n := r.Net
			n.Run(r.Dur)
			for mcs := 0; mcs < 8; mcs++ {
				if n.Cfg.Scheme == SchemeWGTT {
					for _, a := range n.APs {
						counts[mcs] += a.RateMPDUs[mcs]
					}
				} else {
					for _, a := range n.BaseAPs {
						counts[mcs] += a.RateMPDUs[mcs]
					}
				}
			}
			return counts
		}
	}
	perRun := runAll(opt, jobs)
	reduce := func(a, b [8]int) ([]int, float64) {
		counts := make([]int, 8)
		var cdf stats.CDF
		for mcs := range counts {
			counts[mcs] = a[mcs] + b[mcs]
			for i := 0; i < counts[mcs]; i += 8 { // decimate: CDF shape only
				cdf.Add(rateMbpsOf(mcs))
			}
		}
		return counts, cdf.Quantile(0.9)
	}
	var r Fig16Result
	for mcs := 0; mcs < 8; mcs++ {
		r.WGTTRateMbps = append(r.WGTTRateMbps, rateMbpsOf(mcs))
		r.BaselineRateMbps = append(r.BaselineRateMbps, rateMbpsOf(mcs))
	}
	r.WGTTCount, r.WGTT90th = reduce(perRun[0], perRun[1])
	r.BaselineCount, r.Baseline90th = reduce(perRun[2], perRun[3])
	return r
}

// String summarizes the distributions.
func (r Fig16Result) String() string {
	return fmt.Sprintf(
		"Fig 16 — link bit rate at 15 mph\n  WGTT 90th pct:     %.1f Mbit/s\n  Enh-11r 90th pct:  %.1f Mbit/s\n",
		r.WGTT90th, r.Baseline90th)
}

// Table2Result reproduces switching accuracy.
type Table2Result struct {
	WGTTTCP, WGTTUDP         float64 // percent
	BaselineTCP, BaselineUDP float64
}

// Table2SwitchingAccuracy measures the fraction of drive time each scheme
// keeps the client on the oracle-optimal AP.
func Table2SwitchingAccuracy(opt Options) Table2Result {
	measure := func(scheme Scheme, tcp bool) float64 {
		r := crossingRide(buildConfig(scheme, opt, nil), 15, bulk(tcp), scenario.DefaultRateMbps)
		n := r.Net
		var acc stats.Accuracy
		sampleEvery(n, 5*Millisecond, func() {
			acc.Observe(n.Loop.Now(), n.ServingAP(0) == n.OracleBestAP(0))
		})
		n.Run(r.Dur)
		return 100 * acc.Value()
	}
	out := runAll(opt, []func() float64{
		func() float64 { return measure(SchemeWGTT, true) },
		func() float64 { return measure(SchemeWGTT, false) },
		func() float64 { return measure(SchemeEnhanced80211r, true) },
		func() float64 { return measure(SchemeEnhanced80211r, false) },
	})
	return Table2Result{
		WGTTTCP:     out[0],
		WGTTUDP:     out[1],
		BaselineTCP: out[2],
		BaselineUDP: out[3],
	}
}

// String renders the table.
func (r Table2Result) String() string {
	return "Table 2 — switching accuracy (%)\n" + fmtTable(
		[]string{"", "WGTT", "Enhanced 802.11r"},
		[][]string{
			{"TCP", f1(r.WGTTTCP), f1(r.BaselineTCP)},
			{"UDP", f1(r.WGTTUDP), f1(r.BaselineUDP)},
		})
}

// Fig17Result reproduces per-client throughput vs number of clients.
type Fig17Result struct {
	Clients                  []int
	WGTTTCP, WGTTUDP         []float64
	BaselineTCP, BaselineUDP []float64
}

// Fig17MultiClient runs 1–3 clients driving in the Following pattern at
// 15 mph and reports mean per-client goodput.
func Fig17MultiClient(opt Options) Fig17Result {
	return fig17MultiClient(opt, nil)
}

// fig17MultiClient is the parameterized form; nil clients means the
// paper's 1–3.
func fig17MultiClient(opt Options, clients []int) Fig17Result {
	if len(clients) == 0 {
		clients = []int{1, 2, 3}
	}
	res := Fig17Result{Clients: clients}
	var rides []goodputRide
	for _, k := range res.Clients {
		rides = append(rides, schemeRides(drivePattern(Following, k))...)
	}
	mbps := meanGoodputs(opt, rides)
	for i := range res.Clients {
		res.WGTTTCP = append(res.WGTTTCP, mbps[4*i])
		res.WGTTUDP = append(res.WGTTUDP, mbps[4*i+1])
		res.BaselineTCP = append(res.BaselineTCP, mbps[4*i+2])
		res.BaselineUDP = append(res.BaselineUDP, mbps[4*i+3])
	}
	return res
}

// String renders the figure as a table.
func (r Fig17Result) String() string {
	rows := make([][]string, len(r.Clients))
	for i, k := range r.Clients {
		rows[i] = []string{
			fmt.Sprint(k), f1(r.WGTTTCP[i]), f1(r.BaselineTCP[i]),
			f1(r.WGTTUDP[i]), f1(r.BaselineUDP[i]),
		}
	}
	return "Fig 17 — per-client throughput vs #clients (Mbit/s, 15 mph)\n" + fmtTable(
		[]string{"clients", "WGTT-TCP", "11r-TCP", "WGTT-UDP", "11r-UDP"}, rows)
}

// Fig18Result reproduces uplink loss with and without multi-AP reception.
type Fig18Result struct {
	// Mean uplink loss rate per client.
	MultiAP  []float64 // WGTT: every AP forwards
	SingleAP []float64 // baseline: only the associated AP
}

// Fig18UplinkLoss drives three clients at 15 mph sending uplink UDP and
// compares loss with uplink path diversity (WGTT) against the
// single-path baseline.
func Fig18UplinkLoss(opt Options) Fig18Result {
	run := func(scheme Scheme) []float64 {
		n := buildNetwork(scheme, opt)
		trajs, dur := drivePattern(Following, 3)(&n.Cfg)
		var flows []*UDPUplink
		for i, traj := range trajs {
			c := n.AddClient(traj)
			f := NewUDPUplink(n, c, uint16(workload.PortUplink+10*i), 5)
			startAfterWarmup(n, f.Start)
			flows = append(flows, f)
		}
		n.Run(dur)
		var out []float64
		for _, f := range flows {
			out = append(out, f.Sink.LossRate())
		}
		return out
	}
	out := runAll(opt, []func() []float64{
		func() []float64 { return run(SchemeWGTT) },
		func() []float64 { return run(SchemeEnhanced80211r) },
	})
	return Fig18Result{MultiAP: out[0], SingleAP: out[1]}
}

// String renders per-client loss.
func (r Fig18Result) String() string {
	rows := make([][]string, len(r.MultiAP))
	for i := range r.MultiAP {
		rows[i] = []string{
			fmt.Sprintf("client %d", i+1),
			fmt.Sprintf("%.4f", r.MultiAP[i]),
			fmt.Sprintf("%.4f", r.SingleAP[i]),
		}
	}
	return "Fig 18 — uplink UDP loss rate, 3 clients at 15 mph\n" + fmtTable(
		[]string{"", "multi-AP (WGTT)", "single-AP (11r)"}, rows)
}

// Fig20Result reproduces throughput under the three driving patterns.
type Fig20Result struct {
	Patterns                 []Pattern
	WGTTTCP, WGTTUDP         []float64
	BaselineTCP, BaselineUDP []float64
}

// Fig20DrivingPatterns runs two clients at 15 mph in following, parallel,
// and opposing patterns.
func Fig20DrivingPatterns(opt Options) Fig20Result {
	return fig20DrivingPatterns(opt, nil)
}

// fig20DrivingPatterns is the parameterized form; nil patterns means all
// three of Fig. 19.
func fig20DrivingPatterns(opt Options, patterns []Pattern) Fig20Result {
	if len(patterns) == 0 {
		patterns = []Pattern{Following, Parallel, Opposing}
	}
	res := Fig20Result{Patterns: patterns}
	var rides []goodputRide
	for _, p := range res.Patterns {
		rides = append(rides, schemeRides(drivePattern(p, 2))...)
	}
	mbps := meanGoodputs(opt, rides)
	for i := range res.Patterns {
		res.WGTTTCP = append(res.WGTTTCP, mbps[4*i])
		res.WGTTUDP = append(res.WGTTUDP, mbps[4*i+1])
		res.BaselineTCP = append(res.BaselineTCP, mbps[4*i+2])
		res.BaselineUDP = append(res.BaselineUDP, mbps[4*i+3])
	}
	return res
}

// String renders the figure as a table.
func (r Fig20Result) String() string {
	rows := make([][]string, len(r.Patterns))
	for i, p := range r.Patterns {
		rows[i] = []string{
			p.String(), f1(r.WGTTTCP[i]), f1(r.BaselineTCP[i]),
			f1(r.WGTTUDP[i]), f1(r.BaselineUDP[i]),
		}
	}
	return "Fig 20 — two-client driving patterns (Mbit/s per client, 15 mph)\n" + fmtTable(
		[]string{"pattern", "WGTT-TCP", "11r-TCP", "WGTT-UDP", "11r-UDP"}, rows)
}

// drivePattern places k clients driving pattern p at 15 mph, the first
// entering the road a lead-in before its first AP, for the time the
// road's crossing takes.
func drivePattern(p Pattern, k int) placement {
	return func(cfg *Config) ([]Trajectory, Duration) {
		_, dur := scenario.Crossing(cfg, 15)
		lo, _ := cfg.RoadSpanX()
		return Scenario(p, k, lo-scenario.DefaultLeadIn, 0, 15), dur
	}
}

// rateMbpsOf maps an MCS index to Mbit/s.
func rateMbpsOf(mcs int) float64 { return rateTable[mcs] }

var rateTable = [8]float64{7.2, 14.4, 21.7, 28.9, 43.3, 57.8, 65.0, 72.2}
