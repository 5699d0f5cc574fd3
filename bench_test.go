package wgtt

import (
	"testing"

	"wgtt/internal/core"
)

// The benchmarks below are the rides scripts/ci.sh gates on: the
// datapath allocation budget (BenchmarkMeanPerClientMbps and
// BenchmarkCorridorParallel) and the telemetry and flight-recorder
// overhead ratios. wgtt-experiments regenerates the paper's figures;
// bench/ times whole workloads.

// benchOpts seeds iteration i of a benchmark.
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
