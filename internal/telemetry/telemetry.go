// Package telemetry is the unified metrics layer for the wgtt datapath:
// a hierarchical-name registry of counters, gauges, fixed-bucket
// histograms and windowed time series, plus span tracing for the
// stop/start/ack switching protocol (span.go).
//
// Design rules, in order of importance:
//
//  1. Zero allocation on the hot path. Handles (*Counter, *Gauge,
//     *Histogram, *Series) are resolved once at build time; recording
//     is a plain field update. Every handle method is nil-receiver
//     safe, so code instruments unconditionally and a disabled registry
//     (nil handles from a zero Scope) costs one predictable branch per
//     record. State a component keeps anyway — a struct stat, the
//     flight recorder's per-step counts and handoff spans — is
//     registered as a view (CounterFunc, GaugeFunc, Spans) instead of
//     being counted twice.
//
//  2. Deterministic. Metrics carry sim.Time only — never wall clock —
//     and no registry operation consults maps in iteration order at
//     record time. Snapshots sort by name, span aggregates are built
//     from completion order, so output is a pure function of the
//     simulated schedule.
//
//  3. Domain safe. A Registry is split into shards: each parallel
//     segment domain owns one shard and, within a round, only the
//     goroutine running that domain touches it (the same ownership rule
//     as every other per-domain structure; the round barrier orders
//     successive rounds), so counters are plain int64, not atomics.
//     Snapshot merges the shards after Coordinator.Run has returned,
//     which is also the happens-before edge that makes the plain fields
//     visible.
//     Because instrumented code only appends to its own shard,
//     DomainsSerial and DomainsParallel stay bit-identical.
//
// Registration (Scope.Counter etc.) is build-time only: single
// goroutine, before the simulation runs. CounterFunc and GaugeFunc
// callbacks run only during Snapshot (quiescent) or Scope.Sample on the
// owning domain's loop, never on the record path.
package telemetry

import (
	"fmt"
	"sort"

	"wgtt/internal/sim"
)

// SamplePeriod is the cadence of the periodic time-series sampler that
// core schedules on every domain loop.
const SamplePeriod = 100 * sim.Millisecond

// seriesWindow bounds each time series to a ring of this many samples
// (at SamplePeriod, ~409 simulated seconds of history).
const seriesWindow = 4096

// Counter is a monotonically increasing count. Nil-safe: a nil Counter
// ignores updates, so disabled telemetry needs no call-site guards.
type Counter struct {
	name string
	v    int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins instantaneous measurement. Nil-safe.
type Gauge struct {
	name string
	v    float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add adjusts the current value by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the last recorded value (0 on a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds (Prometheus "le" semantics); an implicit +Inf bucket catches
// the rest. Nil-safe.
type Histogram struct {
	name   string
	bounds []float64
	counts []int64 // len(bounds)+1; last is +Inf
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Series is a bounded ring of (sim.Time, value) samples recorded by the
// periodic sampler (Scope.Sample). Nil-safe.
type Series struct {
	name string
	src  func() float64
	t    []sim.Time
	v    []float64
	head int // index of oldest sample
	n    int
}

func (s *Series) record(now sim.Time) {
	if s == nil {
		return
	}
	i := (s.head + s.n) % seriesWindow
	if s.n == seriesWindow {
		s.head = (s.head + 1) % seriesWindow
	} else {
		s.n++
	}
	s.t[i] = now
	s.v[i] = s.src()
}

// Samples returns the retained window in time order.
func (s *Series) Samples() ([]sim.Time, []float64) {
	if s == nil || s.n == 0 {
		return nil, nil
	}
	ts := make([]sim.Time, s.n)
	vs := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		j := (s.head + i) % seriesWindow
		ts[i], vs[i] = s.t[j], s.v[j]
	}
	return ts, vs
}

// Len returns the number of retained samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
	kindSeries
	kindSpans
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindCounterFunc:
		return "counterfunc"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gaugefunc"
	case kindHistogram:
		return "histogram"
	case kindSeries:
		return "series"
	case kindSpans:
		return "spans"
	}
	return "unknown"
}

type metric struct {
	name    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	cfn     func() int64
	fn      func() float64
	hist    *Histogram
	series  *Series
	spans   *Spans
}

// shard holds the metrics owned by one execution domain. Registration
// order is remembered so sampling walks series deterministically. name
// is the prefix the shard was created with ("" for the root shard) —
// the key a partitioned run filters per-process snapshots by.
type shard struct {
	name   string
	byName map[string]*metric
	order  []*metric
}

func newShard(name string) *shard {
	return &shard{name: name, byName: make(map[string]*metric)}
}

func (sh *shard) lookup(name string, kind metricKind) *metric {
	if m, ok := sh.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %q registered as %v, requested as %v",
				name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, kind: kind}
	sh.byName[name] = m
	sh.order = append(sh.order, m)
	return m
}

// Registry is the root of a telemetry hierarchy: one per Network.
type Registry struct {
	shards []*shard // shards[0] is the root shard
}

// NewRegistry returns a registry with a root shard.
func NewRegistry() *Registry {
	return &Registry{shards: []*shard{newShard("")}}
}

// Scope returns a registration view onto the root shard with the given
// name prefix ("" for none). Use for state owned by the main loop
// (server, clients, coordinator).
func (r *Registry) Scope(prefix string) Scope {
	if r == nil {
		return Scope{}
	}
	return Scope{sh: r.shards[0], prefix: prefix}
}

// NewShard creates a shard for one parallel domain and returns its
// scope. Only the owning domain's goroutine may record into handles
// registered through it.
func (r *Registry) NewShard(prefix string) Scope {
	if r == nil {
		return Scope{}
	}
	sh := newShard(prefix)
	r.shards = append(r.shards, sh)
	return Scope{sh: sh, prefix: prefix}
}

// Scope is a named registration point. The zero Scope is "disabled":
// every constructor returns a nil handle and Sample is a no-op, so
// wiring code can pass scopes unconditionally.
type Scope struct {
	sh     *shard
	prefix string
}

// Enabled reports whether the scope is backed by a registry.
func (s Scope) Enabled() bool { return s.sh != nil }

// Sub returns a child scope with name appended to the prefix.
func (s Scope) Sub(name string) Scope {
	if s.sh == nil {
		return Scope{}
	}
	return Scope{sh: s.sh, prefix: s.join(name)}
}

func (s Scope) join(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "/" + name
}

// Counter registers (or finds) a counter under the scope.
func (s Scope) Counter(name string) *Counter {
	if s.sh == nil {
		return nil
	}
	m := s.sh.lookup(s.join(name), kindCounter)
	if m.counter == nil {
		m.counter = &Counter{name: m.name}
	}
	return m.counter
}

// CounterFunc registers a counter evaluated lazily, like GaugeFunc, and
// exported as a counter: the view of a count its owner keeps anyway.
// Re-registering a name replaces the callback.
func (s Scope) CounterFunc(name string, fn func() int64) {
	if s.sh == nil {
		return
	}
	s.sh.lookup(s.join(name), kindCounterFunc).cfn = fn
}

// Gauge registers (or finds) a gauge under the scope.
func (s Scope) Gauge(name string) *Gauge {
	if s.sh == nil {
		return nil
	}
	m := s.sh.lookup(s.join(name), kindGauge)
	if m.gauge == nil {
		m.gauge = &Gauge{name: m.name}
	}
	return m.gauge
}

// GaugeFunc registers a gauge evaluated lazily — only at Snapshot time
// (simulation quiescent) or from the owning domain's sampler — so the
// callback may read domain-owned state and costs nothing on the hot
// path. Re-registering a name replaces the callback.
func (s Scope) GaugeFunc(name string, fn func() float64) {
	if s.sh == nil {
		return
	}
	s.sh.lookup(s.join(name), kindGaugeFunc).fn = fn
}

// Histogram registers (or finds) a fixed-bucket histogram. bounds are
// ascending upper bounds; a +Inf bucket is implicit.
func (s Scope) Histogram(name string, bounds []float64) *Histogram {
	if s.sh == nil {
		return nil
	}
	m := s.sh.lookup(s.join(name), kindHistogram)
	if m.hist == nil {
		m.hist = &Histogram{
			name:   m.name,
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
	}
	return m.hist
}

// Series registers (or finds) a windowed time series fed from fn by the
// periodic sampler (Scope.Sample), at no hot-path cost.
func (s Scope) Series(name string, fn func() float64) *Series {
	if s.sh == nil {
		return nil
	}
	m := s.sh.lookup(s.join(name), kindSeries)
	if m.series == nil {
		m.series = &Series{
			name: m.name,
			src:  fn,
			t:    make([]sim.Time, seriesWindow),
			v:    make([]float64, seriesWindow),
		}
	}
	return m.series
}

// Sample records one point into every series of the underlying shard
// (not just those under this scope's prefix). Call it from the shard's
// owning loop; core schedules it every SamplePeriod.
func (s Scope) Sample(now sim.Time) {
	if s.sh == nil {
		return
	}
	for _, m := range s.sh.order {
		if m.kind == kindSeries {
			m.series.record(now)
		}
	}
}

// Snapshot evaluates gauge callbacks and merges every shard into a
// sorted, self-contained Snapshot. Call only while the simulation is
// quiescent (after Run returns): that is both the determinism rule for
// GaugeFunc reads and the memory-visibility edge for parallel domains.
func (r *Registry) Snapshot(at sim.Time) *Snapshot {
	return r.SnapshotShards(at, nil)
}

// SnapshotShards is Snapshot restricted to the shards whose name keep
// accepts (the root shard's name is ""); a nil keep accepts every
// shard. A partitioned run exports each shard from the process that
// owns its domain — remote shards' series never sample and remote
// GaugeFuncs would read never-run state, so each process keeps exactly
// its own shards and MergeSnapshots stitches the full picture, bit-
// identical to an in-process Snapshot because metric names are unique
// across shards and both paths sort by name.
func (r *Registry) SnapshotShards(at sim.Time, keep func(shard string) bool) *Snapshot {
	if r == nil {
		return nil
	}
	snap := &Snapshot{At: at}
	for _, sh := range r.shards {
		if keep != nil && !keep(sh.name) {
			continue
		}
		for _, m := range sh.order {
			switch m.kind {
			case kindCounter:
				snap.Counters = append(snap.Counters,
					CounterPoint{Name: m.name, Value: m.counter.v})
			case kindCounterFunc:
				snap.Counters = append(snap.Counters,
					CounterPoint{Name: m.name, Value: m.cfn()})
			case kindGauge:
				snap.Gauges = append(snap.Gauges,
					GaugePoint{Name: m.name, Value: m.gauge.v})
			case kindGaugeFunc:
				snap.Gauges = append(snap.Gauges,
					GaugePoint{Name: m.name, Value: m.fn()})
			case kindHistogram:
				snap.Histograms = append(snap.Histograms, histPoint(m.hist))
			case kindSeries:
				ts, vs := m.series.Samples()
				snap.Series = append(snap.Series,
					SeriesPoint{Name: m.name, Times: ts, Values: vs})
			case kindSpans:
				snap.Spans = append(snap.Spans, m.spans.stat())
				for _, h := range m.spans.histograms() {
					snap.Histograms = append(snap.Histograms, histPoint(h))
				}
			}
		}
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	sort.Slice(snap.Series, func(i, j int) bool { return snap.Series[i].Name < snap.Series[j].Name })
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].Name < snap.Spans[j].Name })
	return snap
}

func histPoint(h *Histogram) HistogramPoint {
	return HistogramPoint{
		Name:    h.name,
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: append([]int64(nil), h.counts...),
		Sum:     h.sum,
		Count:   h.n,
	}
}
