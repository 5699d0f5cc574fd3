package telemetry

import (
	"sort"

	"wgtt/internal/sim"
)

// HandoffBoundsMs are the default latency histogram bounds (ms) for
// handoff spans, chosen to resolve the paper's 17–21 ms switch band
// (Table 1) and its Fig. 9 CDF tail.
var HandoffBoundsMs = []float64{1, 2, 5, 10, 15, 20, 25, 30, 40, 50, 75, 100, 150, 250, 500, 1000}

// SpanRecord is one completed stop/start/ack handoff.
type SpanRecord struct {
	ID       uint32   // switch transaction id
	From, To int      // AP indices (global); From is -1 for adoptions
	IssuedAt sim.Time // controller sent the Stop
	StartAt  sim.Time // old AP sent the Start (ioctl done)
	AckedAt  sim.Time // controller saw the SwitchAck
	HasStart bool     // StartAt observed (false if the Start raced a retransmit path)
}

// TotalMs returns the stop→ack latency in milliseconds.
func (r SpanRecord) TotalMs() float64 {
	return float64(r.AckedAt.Sub(r.IssuedAt)) / float64(sim.Millisecond)
}

// Spans tracks in-flight spans keyed by id and aggregates completed ones
// into phase-latency histograms. A tracker is built with NewSpans
// whether or not telemetry is on — its owner feeds it unconditionally —
// and Scope.Spans registers it for export when telemetry is on. Every
// method is O(1); the per-span cost is one map insert and one delete.
type Spans struct {
	name      string
	active    map[uint32]SpanRecord
	completed []SpanRecord
	begun     int64
	dropped   int64
	total     *Histogram // issue→ack, ms
	stop      *Histogram // issue→start (ioctl + stop delivery), ms
	ack       *Histogram // start→ack (queue head move + ack delivery), ms
}

// NewSpans returns an empty tracker with HandoffBoundsMs histograms.
func NewSpans() *Spans {
	mk := func() *Histogram {
		return &Histogram{
			bounds: append([]float64(nil), HandoffBoundsMs...),
			counts: make([]int64, len(HandoffBoundsMs)+1),
		}
	}
	return &Spans{active: make(map[uint32]SpanRecord), total: mk(), stop: mk(), ack: mk()}
}

// Spans registers sp under the scope as name. Its three histograms are
// named <name>/total_ms, <name>/stop_ms and <name>/ack_ms and appear in
// snapshots alongside the tracker's SpanStat. A disabled scope leaves
// sp unregistered (it still tracks).
func (s Scope) Spans(name string, sp *Spans) {
	if s.sh == nil {
		return
	}
	m := s.sh.lookup(s.join(name), kindSpans)
	m.spans = sp
	sp.name = m.name
	sp.total.name, sp.stop.name, sp.ack.name = m.name+"/total_ms", m.name+"/stop_ms", m.name+"/ack_ms"
}

func (sp *Spans) histograms() []*Histogram {
	return []*Histogram{sp.total, sp.stop, sp.ack}
}

// Begin opens a span for id at the moment the Stop is issued.
func (sp *Spans) Begin(id uint32, now sim.Time, from, to int) {
	sp.begun++
	sp.active[id] = SpanRecord{ID: id, From: from, To: to, IssuedAt: now}
}

// MarkStart records the old AP sending its Start (radio ioctl done).
// Stop retransmissions can re-trigger it; the first mark wins.
func (sp *Spans) MarkStart(id uint32, now sim.Time) {
	if a, ok := sp.active[id]; ok && !a.HasStart {
		a.StartAt, a.HasStart = now, true
		sp.active[id] = a
	}
}

// End closes the span at SwitchAck time and folds its phase latencies
// into the histograms.
func (sp *Spans) End(id uint32, now sim.Time) {
	a, ok := sp.active[id]
	if !ok {
		return
	}
	delete(sp.active, id)
	a.AckedAt = now
	sp.completed = append(sp.completed, a)
	ms := func(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }
	sp.total.Observe(ms(now.Sub(a.IssuedAt)))
	if a.HasStart {
		sp.stop.Observe(ms(a.StartAt.Sub(a.IssuedAt)))
		sp.ack.Observe(ms(now.Sub(a.StartAt)))
	}
}

// Drop abandons an in-flight span (the switch was given up, or the
// client was exported to a neighbouring segment mid-switch).
func (sp *Spans) Drop(id uint32) {
	if _, ok := sp.active[id]; ok {
		delete(sp.active, id)
		sp.dropped++
	}
}

// Completed returns the completed span records in completion order.
func (sp *Spans) Completed() []SpanRecord {
	return append([]SpanRecord(nil), sp.completed...)
}

// SpanStat summarizes one Spans tracker in a Snapshot. Quantiles are
// exact (computed from the completed records, not bucket-interpolated).
type SpanStat struct {
	Name      string
	Begun     int64
	Completed int64
	Dropped   int64
	Active    int64
	MeanMs    float64
	P50Ms     float64
	P90Ms     float64
	P99Ms     float64
	MaxMs     float64
}

func (sp *Spans) stat() SpanStat {
	st := SpanStat{
		Name:      sp.name,
		Begun:     sp.begun,
		Completed: int64(len(sp.completed)),
		Dropped:   sp.dropped,
		Active:    int64(len(sp.active)),
	}
	if len(sp.completed) == 0 {
		return st
	}
	ms := make([]float64, len(sp.completed))
	var sum float64
	for i, r := range sp.completed {
		ms[i] = r.TotalMs()
		sum += ms[i]
	}
	sort.Float64s(ms)
	q := func(p float64) float64 {
		i := int(p * float64(len(ms)-1))
		return ms[i]
	}
	st.MeanMs = sum / float64(len(ms))
	st.P50Ms = q(0.50)
	st.P90Ms = q(0.90)
	st.P99Ms = q(0.99)
	st.MaxMs = ms[len(ms)-1]
	return st
}
