package wgtt

import (
	"bufio"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/scenario"
)

// telemetryOn is the Mutate hook the golden-guard tests use: it flips on
// the full metrics registry and nothing else.
func telemetryOn(c *Config) { c.Telemetry = true }

// TestTelemetryGoldenInvariance guards the observability bargain: a
// network built with Config.Telemetry records counters, spans and 100 ms
// series everywhere, yet every pinned output stays bit-identical to the
// uninstrumented run. Any telemetry hook that schedules an event the
// simulation can observe, perturbs an RNG stream, or reorders a domain
// round fails against the same goldens corridor_test.go and
// golden_test.go pin.
func TestTelemetryGoldenInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("several full rides per seed")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: seed, Mutate: telemetryOn}
			serial := render(corridorRide(opt, core.DomainsSerial))
			parallel := render(corridorRide(opt, core.DomainsParallel))
			if serial != goldenCorridor[seed] {
				t.Errorf("telemetry perturbed the serial-domains corridor\n%s",
					firstDiffLabeled("want", "got", goldenCorridor[seed], serial))
			}
			if parallel != goldenCorridor[seed] {
				t.Errorf("telemetry perturbed the parallel-domains corridor\n%s",
					firstDiffLabeled("want", "got", goldenCorridor[seed], parallel))
			}
			if got := render(Fig13ThroughputVsSpeed(opt, []float64{15})); got != goldenFig13[seed] {
				t.Errorf("telemetry perturbed fig13\n%s",
					firstDiffLabeled("want", "got", goldenFig13[seed], got))
			}
		})
	}
}

// promSample matches one Prometheus exposition sample line:
// name, optional {le="…"} histogram label, then a float value.
var promSample = regexp.MustCompile(
	`^(wgtt_[a-zA-Z0-9_:]+)(\{le="[^"]+"\})? (-?[0-9+.eEInfa]+)$`)

// TestTelemetryPromExposition runs a two-segment WGTT drive with
// telemetry on and checks the Prometheus export end to end: the
// acceptance metrics are present (per-AP queue depth, the handoff
// phase-latency histogram, trunk byte counters), and every line is
// either a # TYPE declaration or a sample whose family that declaration
// introduced.
func TestTelemetryPromExposition(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Segments = []SegmentSpec{{NumAPs: 4}, {NumAPs: 4}}
	cfg.Telemetry = true
	n := NewNetwork(cfg)
	lo, _ := cfg.RoadSpanX()
	c := n.AddClient(Drive(lo-5, 0, 25))
	f := NewUDPDownlink(n, c, scenario.DefaultRateMbps)
	startAfterWarmup(n, f.Start)
	_, dur := scenario.Crossing(&cfg, 25)
	n.Run(dur)

	snap := n.MetricsSnapshot()
	if snap == nil {
		t.Fatal("telemetry enabled but MetricsSnapshot returned nil")
	}
	var b strings.Builder
	if err := snap.Write(&b, MetricsProm); err != nil {
		t.Fatalf("prom export: %v", err)
	}
	out := b.String()

	for _, want := range []string{
		"wgtt_seg0_ap0_queue_depth ",            // per-AP queue depth gauge
		"wgtt_seg1_ap4_queue_depth ",            // ...in the second segment too
		`wgtt_seg0_handoff_total_ms_bucket{le=`, // handoff latency histogram
		"wgtt_seg0_handoff_total_ms_sum ",
		"wgtt_seg0_handoff_total_ms_count ",
		"wgtt_seg0_trunk_tx_bytes_total ", // inter-segment trunk counter
		"wgtt_seg0_ctrl_switches_acked_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom export missing %q", want)
		}
	}

	declared := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if fam, ok := strings.CutPrefix(text, "# TYPE "); ok {
			name, kind, found := strings.Cut(fam, " ")
			if !found || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("line %d: malformed TYPE declaration %q", line, text)
			}
			declared[name] = true
			continue
		}
		m := promSample.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("line %d: not a valid exposition sample: %q", line, text)
		}
		name := m[1]
		// Histogram samples belong to the family without the
		// _bucket/_sum/_count suffix.
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && declared[base] {
				fam = base
				break
			}
		}
		if !declared[fam] {
			t.Errorf("line %d: sample %q has no preceding # TYPE declaration", line, name)
		}
	}
}

// TestHandoffSpanCDF reproduces the Fig. 9-style switching-latency
// distribution from the span tracker and cross-checks it against the
// flight recorder's ring as trace.Handoffs folds it (code independent
// of the recorder's span fold): every completed span is one completed
// handoff with a stop leg in the ring, and the median sits in the
// millisecond band Table 1 reports (17–21 ms at the paper's offered
// loads; the simulated ioctl takes 17 ms ± jitter, so anything in 5–40
// ms is a sane realization while a seconds-scale or zero median means
// broken span bookkeeping).
func TestHandoffSpanCDF(t *testing.T) {
	cfg := DefaultConfig(SchemeWGTT)
	cfg.Telemetry = true
	cfg.FlightRecorder = flightRecCap
	n := NewNetwork(cfg)
	lo, _ := cfg.RoadSpanX()
	c := n.AddClient(Drive(lo-5, 0, 15))
	f := NewUDPDownlink(n, c, scenario.DefaultRateMbps)
	startAfterWarmup(n, f.Start)
	_, dur := scenario.Crossing(&cfg, 15)
	n.Run(dur)

	snap := n.MetricsSnapshot()
	if snap == nil {
		t.Fatal("telemetry enabled but MetricsSnapshot returned nil")
	}
	st, ok := snap.Span("handoff")
	if !ok {
		t.Fatal("no handoff span tracker in snapshot")
	}
	if st.Completed < 5 {
		t.Fatalf("only %d handoff spans completed over a full drive", st.Completed)
	}
	var measured int64
	for _, h := range TraceHandoffs(n.FlightRecords()) {
		if h.Completed() && h.From >= 0 {
			measured++
		}
	}
	if st.Completed != measured {
		t.Errorf("span tracker completed %d handoffs, the ring shows %d",
			st.Completed, measured)
	}
	if st.Begun != st.Completed+st.Dropped+st.Active {
		t.Errorf("span lifecycle unbalanced: begun=%d != completed=%d + dropped=%d + active=%d",
			st.Begun, st.Completed, st.Dropped, st.Active)
	}
	if st.P50Ms < 5 || st.P50Ms > 40 {
		t.Errorf("handoff median %.2f ms outside the paper's ms-scale band [5, 40]", st.P50Ms)
	}
	if st.P90Ms < st.P50Ms || st.MaxMs < st.P90Ms {
		t.Errorf("CDF not monotone: p50=%.2f p90=%.2f max=%.2f", st.P50Ms, st.P90Ms, st.MaxMs)
	}
	hist, ok := snap.MergeHistograms("total_ms")
	if !ok {
		t.Fatal("no handoff total_ms histogram in snapshot")
	}
	if hist.Count != st.Completed {
		t.Errorf("histogram count %d != completed spans %d", hist.Count, st.Completed)
	}
	if q := hist.Quantile(0.5); q < 5 || q > 40 {
		t.Errorf("bucket-interpolated median %.2f ms outside [5, 40]", q)
	}
}
