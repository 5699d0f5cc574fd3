package wgtt

import (
	"testing"

	"wgtt/internal/core"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§5). Each iteration runs the full experiment against the
// simulated testbed and reports the headline numbers as custom metrics,
// so `go test -bench=. -benchmem` doubles as the reproduction harness:
//
//	go test -bench=Fig13 -benchtime=1x
//
// EXPERIMENTS.md records a full run next to the paper's numbers.

func benchOpts(i int) Options { return Options{Seed: int64(i + 1)} }

// BenchmarkMeanPerClientMbps times one full 15 mph UDP drive-by — the
// unit of work every end-to-end figure fans out over the runner.
func BenchmarkMeanPerClientMbps(b *testing.B) {
	ride := []goodputRide{{scheme: SchemeWGTT, place: crossAt(15)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mbps := meanGoodputs(benchOpts(i), ride)[0]
		b.ReportMetric(mbps, "Mbps")
	}
}

func BenchmarkFig02BestAPSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig2BestAPSwitching(benchOpts(i))
		b.ReportMetric(float64(r.Flips), "flips")
		b.ReportMetric(r.MeanFlipGapMs, "ms/flip")
	}
}

func BenchmarkFig04RoamingFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig4RoamingFailure(benchOpts(i))
		b.ReportMetric(r.CapacityLossMbps[0], "loss20mph_Mbps")
		b.ReportMetric(r.CapacityLossMbps[1], "loss5mph_Mbps")
	}
}

func BenchmarkFig10ESNRHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig10ESNRHeatmap(benchOpts(i))
		b.ReportMetric(r.OverlapM, "overlap_m")
	}
}

func BenchmarkTable1SwitchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table1SwitchTime(benchOpts(i), []float64{50, 70, 90})
		b.ReportMetric(r.MeanMs[0], "ms@50")
		b.ReportMetric(r.MeanMs[2], "ms@90")
		b.ReportMetric(r.StdMs[0], "std_ms@50")
	}
}

func BenchmarkFig13ThroughputVsSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig13ThroughputVsSpeed(benchOpts(i), []float64{5, 15, 35})
		last := len(r.SpeedsMPH) - 1
		b.ReportMetric(r.WGTTUDP[1], "wgtt_udp15_Mbps")
		b.ReportMetric(r.BaselineUDP[1], "11r_udp15_Mbps")
		b.ReportMetric(r.WGTTUDP[last]/r.BaselineUDP[last], "udp35_gain_x")
		b.ReportMetric(r.WGTTTCP[last]/r.BaselineTCP[last], "tcp35_gain_x")
	}
}

func BenchmarkFig14TCPTimeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig14TCPTimeseries(benchOpts(i))
		b.ReportMetric(r.WGTT.MeanMbps, "wgtt_Mbps")
		b.ReportMetric(r.Baseline.MeanMbps, "11r_Mbps")
		b.ReportMetric(float64(r.WGTT.Switches)/9.4, "wgtt_switches_per_s")
	}
}

func BenchmarkFig15UDPTimeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig15UDPTimeseries(benchOpts(i))
		b.ReportMetric(r.WGTT.MeanMbps, "wgtt_Mbps")
		b.ReportMetric(r.Baseline.MeanMbps, "11r_Mbps")
		b.ReportMetric(float64(r.Baseline.Switches), "11r_switches")
	}
}

func BenchmarkFig16BitrateCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig16BitrateCDF(benchOpts(i))
		b.ReportMetric(r.WGTT90th, "wgtt_p90_Mbps")
		b.ReportMetric(r.Baseline90th, "11r_p90_Mbps")
	}
}

func BenchmarkTable2SwitchingAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table2SwitchingAccuracy(benchOpts(i))
		b.ReportMetric(r.WGTTUDP, "wgtt_udp_pct")
		b.ReportMetric(r.BaselineUDP, "11r_udp_pct")
	}
}

func BenchmarkFig17MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig17MultiClient(benchOpts(i))
		b.ReportMetric(r.WGTTUDP[2], "wgtt_udp3_Mbps")
		b.ReportMetric(r.BaselineUDP[2], "11r_udp3_Mbps")
		b.ReportMetric(r.WGTTUDP[2]/r.BaselineUDP[2], "udp3_gain_x")
	}
}

func BenchmarkFig18UplinkLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig18UplinkLoss(benchOpts(i))
		b.ReportMetric(mean(r.MultiAP), "multiAP_loss")
		b.ReportMetric(mean(r.SingleAP), "singleAP_loss")
	}
}

func BenchmarkFig20DrivingPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig20DrivingPatterns(benchOpts(i))
		b.ReportMetric(r.WGTTUDP[0], "following_Mbps")
		b.ReportMetric(r.WGTTUDP[1], "parallel_Mbps")
		b.ReportMetric(r.WGTTUDP[2], "opposing_Mbps")
	}
}

func BenchmarkFig21WindowSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig21WindowSize(benchOpts(i), []float64{1, 10, 100})
		b.ReportMetric(r.LossRate[0], "loss@1ms")
		b.ReportMetric(r.LossRate[1], "loss@10ms")
		b.ReportMetric(r.LossRate[2], "loss@100ms")
	}
}

func BenchmarkTable3AckCollisions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table3AckCollisions(benchOpts(i), []float64{70, 90})
		b.ReportMetric(r.CollisionPct[0], "pct@70")
		b.ReportMetric(r.CollisionPct[1], "pct@90")
	}
}

func BenchmarkFig22Hysteresis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig22Hysteresis(benchOpts(i), nil)
		b.ReportMetric(r.TCPMbps[0], "Mbps@40ms")
		b.ReportMetric(r.TCPMbps[2], "Mbps@120ms")
	}
}

func BenchmarkFig23APDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig23APDensity(benchOpts(i), []float64{15})
		b.ReportMetric(r.DenseMbps[0], "dense_Mbps")
		b.ReportMetric(r.SparseMbps[0], "sparse_Mbps")
	}
}

// BenchmarkFig23APDensitySegmented isolates the multi-segment column of
// Fig 23: the same 15 mph ride across a dense 7.5 m segment trunked to a
// sparse 15 m segment, each with its own controller, so the measurement
// includes one cross-segment controller handoff per drive.
func BenchmarkFig23APDensitySegmented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig23APDensity(benchOpts(i), []float64{15})
		b.ReportMetric(r.SegmentedMbps[0], "segmented_Mbps")
	}
}

func BenchmarkTable4VideoRebuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table4VideoRebuffer(benchOpts(i), []float64{5, 20})
		b.ReportMetric(r.WGTT[0], "wgtt@5mph")
		b.ReportMetric(r.Baseline[0], "11r@5mph")
		b.ReportMetric(r.Baseline[1], "11r@20mph")
	}
}

func BenchmarkFig24ConferencingFPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig24ConferencingFPS(benchOpts(i), []float64{15})
		b.ReportMetric(r.Skype85th[0], "skype_p85_fps")
		b.ReportMetric(r.Hangouts85th[0], "hangouts_p85_fps")
	}
}

func BenchmarkTable5WebPageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Table5WebPageLoad(benchOpts(i), []float64{5, 15})
		b.ReportMetric(r.WGTT[0], "wgtt@5mph_s")
		b.ReportMetric(r.WGTT[1], "wgtt@15mph_s")
		if r.Baseline[1] > 1e8 { // ∞: never loaded
			b.ReportMetric(-1, "11r@15mph_s")
		} else {
			b.ReportMetric(r.Baseline[1], "11r@15mph_s")
		}
	}
}

// BenchmarkCorridorParallel times a two-client ride through a
// 24-segment corridor (96 APs) executed as per-segment event-loop
// domains: round-robin on one goroutine (domains-serial) vs each round's
// active domains claimed by the coordinator and GOMAXPROCS−1 helper
// goroutines (domains-parallel). The two produce bit-identical results,
// so the ratio of their times is the pure speedup of the conservative
// parallel execution. With two vehicles most rounds have one or two
// active domains, so the parallel form gains little over serial; at
// GOMAXPROCS=1 it has no helpers and runs serially.
// The ride is capped at 10 simulated seconds to bound each iteration.
func BenchmarkCorridorParallel(b *testing.B) {
	for _, mode := range []core.DomainMode{core.DomainsSerial, core.DomainsParallel} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := corridorRideN(benchOpts(i), mode, 24, 10*Second)
				b.ReportMetric(r.MeanMbps, "Mbps")
			}
		})
	}
}

// BenchmarkCorridorParallelMetrics is the same 24-segment
// domains-parallel ride with the full telemetry registry enabled —
// per-AP counters and queue-depth series, handoff spans, 100 ms
// samplers in every domain. Compared against the DomainsParallel case
// of BenchmarkCorridorParallel it measures the end-to-end overhead of
// instrumentation on the hot path; scripts/ci.sh gates the ratio at 5%.
func BenchmarkCorridorParallelMetrics(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := benchOpts(i)
		opt.Mutate = func(c *Config) { c.Telemetry = true }
		r := corridorRideN(opt, core.DomainsParallel, 24, 10*Second)
		b.ReportMetric(r.MeanMbps, "Mbps")
	}
}

// BenchmarkCorridorParallelFlightRec is BenchmarkCorridorParallelMetrics
// with the causal flight recorder live in every domain — per-switch
// structured records, trace-register propagation, and the latency-band
// anomaly trigger. The delta against the recorder-off ride prices
// recording on the hot path; scripts/ci.sh gates the ratio at 5% (and
// the disabled path adds no allocations: records are value-typed and a
// nil recorder is a no-op).
func BenchmarkCorridorParallelFlightRec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := benchOpts(i)
		opt.Mutate = func(c *Config) {
			c.Telemetry = true
			c.FlightRecorder = 4096
			c.Controller.HandoffBandLoMs, c.Controller.HandoffBandHiMs = 17, 21
		}
		r := corridorRideN(opt, core.DomainsParallel, 24, 10*Second)
		b.ReportMetric(r.MeanMbps, "Mbps")
	}
}

// BenchmarkCorridorFederated times an eight-segment federated corridor
// ride in parallel-domain mode with the full fault machinery live: ring
// trunk, directory replication on every handoff, and a fault schedule
// injecting a mid-ride outage plus random trunk drops and jitter. The
// delta against an unfederated ride of the same size prices the
// federation layer; the Mbps metric shows throughput surviving faults.
func BenchmarkCorridorFederated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOpts(i)
		opt.Mutate = func(c *Config) {
			c.Federation.Enabled = true
			c.Federation.Ring = true
			c.Trunk.Faults = FaultSchedule{
				Outages:   []Outage{{A: 1, B: 2, Start: 2 * Second, End: 4 * Second}},
				DropProb:  0.02,
				JitterMax: 40 * Microsecond,
			}
		}
		r := corridorRideN(opt, core.DomainsParallel, 8, 10*Second)
		b.ReportMetric(r.MeanMbps, "Mbps")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Ablations(benchOpts(i))
		b.ReportMetric(r.UDPMbps[0], "full_udp_Mbps")
		b.ReportMetric(r.UDPMbps[1], "csiseed_udp_Mbps")
		b.ReportMetric(r.UDPMbps[2], "noBAfwd_udp_Mbps")
		b.ReportMetric(r.UDPMbps[3], "noflush_udp_Mbps")
	}
}
