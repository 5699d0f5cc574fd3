package telemetry

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"wgtt/internal/sim"
)

func TestDisabledScopeIsInert(t *testing.T) {
	var sc Scope
	if sc.Enabled() {
		t.Fatal("zero Scope reports enabled")
	}
	c := sc.Counter("x")
	g := sc.Gauge("y")
	h := sc.Histogram("z", []float64{1})
	se := sc.Series("w", func() float64 { return 1 })
	if c != nil || g != nil || h != nil || se != nil {
		t.Fatal("zero Scope returned non-nil handles")
	}
	// All nil-receiver operations must be no-ops, not panics.
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(4)
	sc.Sample(0)
	sc.GaugeFunc("f", func() float64 { return 0 })
	sc.CounterFunc("n", func() int64 { return 0 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || se.Len() != 0 {
		t.Fatal("nil handles accumulated state")
	}
	// A span tracker registered on a disabled scope still tracks.
	sp := NewSpans()
	sc.Spans("s", sp)
	sp.Begin(1, 0, 0, 1)
	sp.End(1, 0)
	if len(sp.Completed()) != 1 {
		t.Fatal("unregistered span tracker dropped a span")
	}
}

func TestRegistryDedupAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("seg0")
	a := sc.Counter("ap0/mpdus")
	b := sc.Sub("ap0").Counter("mpdus")
	if a != b {
		t.Fatal("same hierarchical name resolved to distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	sc.Gauge("ap0/mpdus")
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("").Histogram("lat", []float64{10, 20, 40})
	for v := 1.0; v <= 30; v++ {
		h.Observe(v) // 10 in (0,10], 10 in (10,20], 10 in (20,40]
	}
	h.Observe(1000) // +Inf bucket
	snap := r.Snapshot(0)
	hp, ok := snap.Histogram("lat")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hp.Count != 31 {
		t.Fatalf("count = %d, want 31", hp.Count)
	}
	p50 := hp.Quantile(0.5)
	if p50 < 10 || p50 > 20 {
		t.Fatalf("p50 = %g, want within (10,20]", p50)
	}
	if q := hp.Quantile(1.0); q != 40 {
		t.Fatalf("q1.0 = %g, want clamp to largest finite bound 40", q)
	}
}

func TestSeriesWindowAndSampling(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("seg0")
	depth := 0.0
	sc.Series("ap0/queue_depth_100ms", func() float64 { return depth })
	for i := 0; i < seriesWindow+10; i++ {
		depth = float64(i)
		sc.Sample(sim.Time(i) * sim.Time(SamplePeriod))
	}
	snap := r.Snapshot(0)
	se := snap.Series[0]
	if len(se.Values) != seriesWindow {
		t.Fatalf("window = %d, want %d", len(se.Values), seriesWindow)
	}
	if se.Values[0] != 10 || se.Values[len(se.Values)-1] != float64(seriesWindow+9) {
		t.Fatalf("ring dropped wrong samples: first=%g last=%g", se.Values[0], se.Values[len(se.Values)-1])
	}
	for i := 1; i < len(se.Times); i++ {
		if se.Times[i] <= se.Times[i-1] {
			t.Fatalf("samples out of time order at %d", i)
		}
	}
}

func TestSpansLifecycle(t *testing.T) {
	r := NewRegistry()
	sp := NewSpans()
	r.Scope("seg0").Spans("handoff", sp)
	ms := func(x int) sim.Time { return sim.Time(x) * sim.Time(sim.Millisecond) }

	sp.Begin(7, ms(100), 2, 3)
	sp.MarkStart(7, ms(117))
	sp.MarkStart(7, ms(130)) // retransmit race: first mark wins
	sp.End(7, ms(121))

	sp.Begin(8, ms(200), 3, 4)
	sp.Drop(8)
	sp.End(8, ms(250)) // ended after drop: ignored

	done := sp.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d, want 1", len(done))
	}
	rec := done[0]
	if rec.ID != 7 || rec.From != 2 || rec.To != 3 {
		t.Fatalf("bad record: %+v", rec)
	}
	if got := rec.TotalMs(); math.Abs(got-21) > 1e-9 {
		t.Fatalf("total = %gms, want 21", got)
	}
	if !rec.HasStart || rec.StartAt != ms(117) {
		t.Fatalf("start mark wrong: %+v", rec)
	}

	snap := r.Snapshot(ms(300))
	st, ok := snap.Span("handoff")
	if !ok {
		t.Fatal("span stat missing")
	}
	if st.Begun != 2 || st.Completed != 1 || st.Dropped != 1 || st.Active != 0 {
		t.Fatalf("stat = %+v", st)
	}
	if math.Abs(st.P50Ms-21) > 1e-9 || math.Abs(st.MeanMs-21) > 1e-9 {
		t.Fatalf("quantiles wrong: %+v", st)
	}
	if _, ok := snap.Histogram("seg0/handoff/total_ms"); !ok {
		t.Fatal("span histogram not exported")
	}
	if h, _ := snap.Histogram("seg0/handoff/stop_ms"); h.Count != 1 {
		t.Fatalf("stop phase histogram count = %d, want 1", h.Count)
	}
}

func TestSnapshotMergesShardsSorted(t *testing.T) {
	r := NewRegistry()
	s1 := r.NewShard("seg1")
	s0 := r.NewShard("seg0")
	s1.Counter("trunk/tx_bytes").Add(10)
	s0.Counter("trunk/tx_bytes").Add(5)
	r.Scope("server").Counter("loop/events").Add(3)
	snap := r.Snapshot(0)
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	want := []string{"seg0/trunk/tx_bytes", "seg1/trunk/tx_bytes", "server/loop/events"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if got := snap.SumCounters("tx_bytes"); got != 15 {
		t.Fatalf("SumCounters = %d, want 15", got)
	}
	if v, ok := snap.Counter("seg0/trunk/tx_bytes"); !ok || v != 5 {
		t.Fatalf("Counter lookup = %d,%v", v, ok)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.Scope("seg0").GaugeFunc("ap0/queue_depth", func() float64 { calls++; return 42 })
	if calls != 0 {
		t.Fatal("gauge func ran at registration")
	}
	snap := r.Snapshot(0)
	if calls != 1 {
		t.Fatalf("gauge func calls = %d, want 1", calls)
	}
	if v, ok := snap.Gauge("seg0/ap0/queue_depth"); !ok || v != 42 {
		t.Fatalf("gauge = %g,%v", v, ok)
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

func checkProm(t *testing.T, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty prom output")
	}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			f := strings.Fields(ln)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line: %q", ln)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("bad TYPE %q in %q", f[3], ln)
			}
			continue
		}
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Fatalf("invalid exposition line: %q", ln)
		}
	}
}

func TestExportFormats(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("seg0")
	sc.Counter("trunk/tx_bytes").Add(1234)
	sc.GaugeFunc("ap3/queue_depth", func() float64 { return 7 })
	sc.CounterFunc("ctrl/switches_issued", func() int64 { return 5 })
	h := sc.Histogram("rtt_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(50)
	sp := NewSpans()
	sc.Spans("handoff", sp)
	sp.Begin(1, 0, 0, 1)
	sp.End(1, sim.Time(20*sim.Millisecond))
	depth := 3.0
	sc.Series("ap3/queue_depth_100ms", func() float64 { return depth })
	sc.Sample(sim.Time(SamplePeriod))
	snap := r.Snapshot(sim.Time(sim.Second))

	var prom strings.Builder
	if err := snap.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	checkProm(t, prom.String())
	for _, want := range []string{
		"wgtt_seg0_trunk_tx_bytes_total 1234",
		"wgtt_seg0_ctrl_switches_issued_total 5",
		"wgtt_seg0_ap3_queue_depth 7",
		`wgtt_seg0_handoff_total_ms_bucket{le="+Inf"} 1`,
		"wgtt_seg0_handoff_completed_total 1",
		"wgtt_seg0_ap3_queue_depth_100ms_last 3",
		"wgtt_seg0_rtt_ms_count 2",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// Histogram buckets must be cumulative.
	if !strings.Contains(prom.String(), `wgtt_seg0_rtt_ms_bucket{le="10"} 1`) ||
		!strings.Contains(prom.String(), `wgtt_seg0_rtt_ms_bucket{le="+Inf"} 2`) {
		t.Errorf("prom histogram buckets not cumulative:\n%s", prom.String())
	}

	var js strings.Builder
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal([]byte(js.String()), &round); err != nil {
		t.Fatalf("JSON does not round-trip: %v", err)
	}
	if len(round.Counters) != len(snap.Counters) {
		t.Fatal("JSON round-trip lost counters")
	}

	var csv strings.Builder
	if err := snap.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "kind,name,field,value\n") {
		t.Fatal("CSV missing header")
	}
	if !strings.Contains(csv.String(), "counter,seg0/trunk/tx_bytes,value,1234") {
		t.Fatalf("CSV missing counter row:\n%s", csv.String())
	}

	var txt strings.Builder
	if err := snap.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "seg0/trunk/tx_bytes") {
		t.Fatal("text export missing counter")
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"": FormatText, "text": FormatText, "json": FormatJSON,
		"csv": FormatCSV, "prom": FormatProm, "PROM": FormatProm,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat accepted xml")
	}
}

func TestCollectorMergesCommutatively(t *testing.T) {
	mkSnap := func(bytes int64, latMs float64) *Snapshot {
		r := NewRegistry()
		sc := r.Scope("seg0")
		sc.Counter("trunk/tx_bytes").Add(bytes)
		sc.Counter("ctrl/switches_issued").Inc()
		sp := NewSpans()
		sc.Spans("handoff", sp)
		sp.Begin(1, 0, 0, 1)
		sp.End(1, sim.Time(latMs*float64(sim.Millisecond)))
		return r.Snapshot(0)
	}
	a, b := mkSnap(100, 10), mkSnap(200, 30)

	c1 := NewCollector()
	c1.Record("case", a)
	c1.Record("case", b)
	c2 := NewCollector()
	c2.Record("case", b)
	c2.Record("case", a)
	if c1.Summary() != c2.Summary() {
		t.Fatalf("collector order-dependent:\n%s\nvs\n%s", c1.Summary(), c2.Summary())
	}
	s := c1.Summary()
	for _, want := range []string{"runs=2", "done=2", "trunk_tx_bytes=300", "issued=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	c1.Reset()
	if c1.Summary() != "" {
		t.Fatal("Reset did not clear cases")
	}
}

func TestMergeHistograms(t *testing.T) {
	r := NewRegistry()
	h0 := r.NewShard("seg0").Histogram("handoff/total_ms", []float64{10, 20})
	h1 := r.NewShard("seg1").Histogram("handoff/total_ms", []float64{10, 20})
	h0.Observe(5)
	h1.Observe(15)
	h1.Observe(15)
	snap := r.Snapshot(0)
	m, ok := snap.MergeHistograms("total_ms")
	if !ok || m.Count != 3 {
		t.Fatalf("merge = %+v, %v", m, ok)
	}
	if m.Buckets[0] != 1 || m.Buckets[1] != 2 {
		t.Fatalf("merged buckets = %v", m.Buckets)
	}
}
