package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

func rec(at sim.Time, trace uint64, op Op, node int16) Record {
	return Record{At: at, Trace: trace, Op: op, Node: node, SwitchID: uint32(trace & 0xffffffff)}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Record{})
	r.Anomaly(Anomaly{Kind: AnomalyLatency})
	if r.Len() != 0 || r.Total() != 0 || r.Records() != nil || r.Anomalies() != nil {
		t.Fatal("nil recorder must be inert")
	}
	if r.Count(-1, OpIssue) != 0 {
		t.Fatal("nil recorder counted a step")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(2, 4)
	for i := 1; i <= 7; i++ {
		r.Record(rec(sim.Time(i), uint64(i), OpIssue, -1))
	}
	if r.Total() != 7 || r.Len() != 4 {
		t.Fatalf("Total=%d Len=%d, want 7, 4", r.Total(), r.Len())
	}
	got := r.Records()
	for i, want := range []sim.Time{4, 5, 6, 7} {
		if got[i].At != want {
			t.Fatalf("Records()[%d].At = %v, want %v (oldest-first)", i, got[i].At, want)
		}
		if got[i].Domain != 2 {
			t.Fatalf("record not stamped with recorder domain: %+v", got[i])
		}
	}
}

// TestRecordZeroAlloc pins the hot-path contract: recording a step
// already counted once — into a live ring, a ring-less recorder, or the
// nil one — never allocates.
func TestRecordZeroAlloc(t *testing.T) {
	live := NewRecorder(0, 128)
	ringless := NewRecorder(0, 0)
	var off *Recorder
	sample := rec(5, 9, OpStop, 3)
	if n := testing.AllocsPerRun(1000, func() { live.Record(sample) }); n != 0 {
		t.Errorf("enabled Record allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { ringless.Record(sample) }); n != 0 {
		t.Errorf("ring-less Record allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { off.Record(sample) }); n != 0 {
		t.Errorf("disabled Record allocates %v/op, want 0", n)
	}
}

// TestRecorderFoldWithoutRing replays one segment's scripted
// switch-protocol records at ring capacities 0 and 64. The per-node
// counts, the handoff span fold and its phase histograms must be the
// same at both, and only the ring-backed recorder keeps records and
// anomalies.
func TestRecorderFoldWithoutRing(t *testing.T) {
	mac := packet.ClientMAC(1)
	ms := func(x int) sim.Time { return sim.Time(x) * sim.Time(sim.Millisecond) }
	script := []Record{
		// Adoption onto AP 4: no from-AP, so no span.
		{At: ms(1), SwitchID: 1, Node: -1, Op: OpIssue, A: -1, B: 4},
		{At: ms(2), SwitchID: 1, Node: 4, Op: OpStartRx},
		{At: ms(3), SwitchID: 1, Node: -1, Op: OpAck, A: 4},
		// Local handoff 4 → 5 whose first stop is retransmitted.
		{At: ms(10), SwitchID: 2, Node: -1, Op: OpIssue, A: 4, B: 5},
		{At: ms(11), SwitchID: 2, Node: 4, Op: OpStop, A: 5},
		{At: ms(40), SwitchID: 2, Node: -1, Op: OpRetx, A: 1},
		{At: ms(41), SwitchID: 2, Node: 4, Op: OpStop, A: 5},
		{At: ms(58), SwitchID: 2, Node: 4, Op: OpStart, A: 9, B: 5},
		{At: ms(59), SwitchID: 2, Node: 5, Op: OpStartRx, A: 3},
		{At: ms(60), SwitchID: 2, Node: -1, Op: OpAck, A: 5},
		// Handoff 5 → 6 abandoned after retry exhaustion.
		{At: ms(100), SwitchID: 3, Node: -1, Op: OpIssue, A: 5, B: 6},
		{At: ms(101), SwitchID: 3, Node: 5, Op: OpStop, A: 6},
		{At: ms(400), SwitchID: 3, Node: -1, Op: OpAbandon, A: 10},
		// Cross-segment handoff: the span is begun, marked and dropped.
		{At: ms(500), SwitchID: 4, Node: -1, Op: OpIssue, A: 5, B: -1},
		{At: ms(501), SwitchID: 4, Node: 5, Op: OpStop, A: -1},
		{At: ms(518), SwitchID: 4, Node: 5, Op: OpStart, A: 12, B: -1},
		{At: ms(520), SwitchID: 4, Node: -1, Op: OpExport, A: 0, B: 2},
		// A release's stand-down stop: its start matches no span.
		{At: ms(600), SwitchID: 5, Node: 5, Op: OpStart, A: 12, B: -1},
	}
	for i := range script {
		script[i].Client = mac
		script[i].Trace = uint64(5)<<32 | uint64(script[i].SwitchID)
	}
	replay := func(capacity int) (*Recorder, *telemetry.Snapshot) {
		r := NewRecorder(1, capacity)
		reg := telemetry.NewRegistry()
		reg.Scope("seg1").Spans("handoff", r.Spans())
		for _, rec := range script {
			r.Record(rec)
		}
		r.Anomaly(Anomaly{At: ms(60), Kind: AnomalyLatency, Value: 50})
		return r, reg.Snapshot(ms(700))
	}
	off, offSnap := replay(0)
	on, onSnap := replay(64)

	counts := []struct {
		node int
		op   Op
		want int
	}{
		{-1, OpIssue, 4}, {-1, OpAck, 2}, {-1, OpRetx, 1}, {-1, OpAbandon, 1}, {-1, OpExport, 1},
		{4, OpStop, 2}, {4, OpStart, 1}, {4, OpStartRx, 1},
		{5, OpStop, 2}, {5, OpStart, 2}, {5, OpStartRx, 1},
		{6, OpStop, 0},
	}
	for _, c := range counts {
		if got := off.Count(c.node, c.op); got != c.want {
			t.Errorf("capacity 0: node %d %s = %d, want %d", c.node, c.op, got, c.want)
		}
		if got := on.Count(c.node, c.op); got != c.want {
			t.Errorf("capacity 64: node %d %s = %d, want %d", c.node, c.op, got, c.want)
		}
	}
	st, ok := offSnap.Span("handoff")
	if !ok || st.Begun != 3 || st.Completed != 1 || st.Dropped != 2 || st.Active != 0 {
		t.Fatalf("span fold = %+v, want begun 3, completed 1, dropped 2, active 0", st)
	}
	for name, want := range map[string]float64{"total_ms": 50, "stop_ms": 48, "ack_ms": 2} {
		h, ok := offSnap.Histogram("seg1/handoff/" + name)
		if !ok || h.Count != 1 || h.Sum != want {
			t.Errorf("%s = %+v, want one %g ms observation", name, h, want)
		}
	}
	if !reflect.DeepEqual(offSnap, onSnap) {
		t.Errorf("fold differs with the ring on:\n  off %+v\n  on  %+v", offSnap, onSnap)
	}
	if len(off.Records()) != 0 || len(off.Anomalies()) != 0 || off.Total() != 0 {
		t.Errorf("capacity 0 kept %d records, %d anomalies", len(off.Records()), len(off.Anomalies()))
	}
	if len(on.Records()) != len(script) || len(on.Anomalies()) != 1 {
		t.Errorf("capacity 64 kept %d records, %d anomalies; want %d, 1",
			len(on.Records()), len(on.Anomalies()), len(script))
	}
}

func TestAnomalyBounded(t *testing.T) {
	r := NewRecorder(0, 4)
	for i := 0; i < 100; i++ {
		r.Anomaly(Anomaly{At: sim.Time(i), Kind: AnomalyUnowned, Value: float64(i)})
	}
	if got := len(r.Anomalies()); got != 64 {
		t.Fatalf("anomalies = %d, want capped at 64", got)
	}
}

// TestStitchPermutationDeterminism: stitching the same shards in any
// order yields the identical timeline.
func TestStitchPermutationDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([][]Record, 4)
	for d := range shards {
		for i := 0; i < 20; i++ {
			shards[d] = append(shards[d], Record{
				At:     sim.Time(rng.Intn(10)),
				Trace:  uint64(rng.Intn(5)),
				Domain: int16(d),
				Node:   int16(rng.Intn(3)) - 1,
				Op:     Op(rng.Intn(int(OpImport)) + 1),
			})
		}
	}
	want := Stitch(shards...)
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(shards))
		sh := make([][]Record, 0, len(shards))
		for _, p := range perm {
			sh = append(sh, shards[p])
		}
		if got := Stitch(sh...); !reflect.DeepEqual(got, want) {
			t.Fatalf("permutation %v stitched differently", perm)
		}
	}
}

func handoffRecords() []Record {
	mac := packet.ClientMAC(4)
	const tr = uint64(3)<<32 | 7
	return []Record{
		{At: 10, Trace: tr, SwitchID: 7, Op: OpIssue, Client: mac, A: 2, B: 5, Domain: 1, Node: -1},
		{At: 11, Trace: tr, SwitchID: 7, Op: OpStop, Node: 2, A: 5},
		{At: 12, Trace: tr, SwitchID: 7, Op: OpRetx, Node: -1, A: 1},
		{At: 14, Trace: tr, SwitchID: 7, Op: OpStart, Node: 2, A: 9, B: 5},
		{At: 15, Trace: tr, SwitchID: 7, Op: OpStartRx, Node: 5, A: 3},
		{At: 17, Trace: tr, SwitchID: 7, Op: OpAck, Node: -1, A: 5},
		{At: 16, Trace: 0, Op: OpClaim}, // traceless: skipped
	}
}

func TestHandoffsReassembly(t *testing.T) {
	hs := Handoffs(Stitch(handoffRecords()))
	if len(hs) != 1 {
		t.Fatalf("handoffs = %d, want 1", len(hs))
	}
	h := hs[0]
	if !h.Completed() || h.From != 2 || h.To != 5 || h.Domain != 1 || h.SwitchID != 7 {
		t.Fatalf("handoff = %+v", h)
	}
	if !h.HasStop || !h.HasStart || !h.HasStartRx || h.Retx != 1 || h.Flushed != 3 {
		t.Fatalf("phases = %+v", h)
	}
	if h.Issue != 10 || h.Start != 14 || h.Ack != 17 {
		t.Fatalf("times = %+v", h)
	}
	if want := float64(17-10) / float64(sim.Millisecond); h.TotalMs() != want {
		t.Fatalf("TotalMs = %g, want %g", h.TotalMs(), want)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Stitch(handoffRecords())); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var slices, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	// One handoff slice + stop-phase + ack-phase; every record an instant.
	if slices != 3 {
		t.Fatalf("duration slices = %d, want 3:\n%s", slices, buf.String())
	}
	if instants != len(handoffRecords()) {
		t.Fatalf("instants = %d, want %d", instants, len(handoffRecords()))
	}
	if !strings.Contains(buf.String(), `"name":"seg1"`) {
		t.Fatalf("missing process metadata:\n%s", buf.String())
	}
}

func TestDumpAnomalies(t *testing.T) {
	recs := Stitch(handoffRecords())
	anoms := []Anomaly{{At: 14, Kind: AnomalyLatency, Trace: recs[0].Trace, Value: 33.5}}
	var buf bytes.Buffer
	if err := DumpAnomalies(&buf, recs, anoms, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "handoff-latency") || !strings.Contains(out, "value=33.5") {
		t.Fatalf("missing anomaly header:\n%s", out)
	}
	// Window ±2ns around t=14 covers records at 12 and 14–16 but not 10.
	if !strings.Contains(out, "retx") || !strings.Contains(out, "start-rx") {
		t.Fatalf("missing window records:\n%s", out)
	}
	if strings.Contains(out, "issue") {
		t.Fatalf("record outside window leaked in:\n%s", out)
	}
}

// TestRingProperty: a recorder of capacity c retains exactly the last
// min(n, c) of n records, oldest-first, and counts all n.
func TestRingProperty(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		c := int(capRaw%16) + 1
		r := NewRecorder(0, c)
		for i := 0; i < int(n); i++ {
			r.Record(rec(sim.Time(i), uint64(i), OpIssue, -1))
		}
		got := r.Records()
		want := min(int(n), c)
		if len(got) != want || r.Len() != want || r.Total() != uint64(n) {
			return false
		}
		for i, g := range got {
			if g.At != sim.Time(int(n)-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDumpFormat pins the text view's line format: one line per record
// with every field, in input order.
func TestDumpFormat(t *testing.T) {
	mac := packet.ClientMAC(4)
	recs := []Record{
		{At: sim.Time(1500 * sim.Millisecond), Trace: 3<<32 | 7, SwitchID: 7, Domain: 1, Node: -1,
			Op: OpIssue, Client: mac, A: 2, B: 5},
		{At: sim.Time(1512 * sim.Millisecond), Trace: 3<<32 | 7, SwitchID: 7, Domain: 1, Node: 2,
			Op: OpStartRx, Client: mac, A: 3},
		{At: sim.Time(1600 * sim.Millisecond), Domain: 2, Node: -1, Op: OpRelease, Client: mac, A: -1, B: 3},
	}
	var buf bytes.Buffer
	if err := Dump(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(
		"1.500000s dom=1 node=-1 issue    #7 %[1]s trace=0x300000007 a=2 b=5\n"+
			"1.512000s dom=1 node=2 start-rx #7 %[1]s trace=0x300000007 a=3 b=0\n"+
			"1.600000s dom=2 node=-1 release  #0 %[1]s trace=0x0 a=-1 b=3\n", mac)
	if got := buf.String(); got != want {
		t.Fatalf("Dump =\n%s\nwant\n%s", got, want)
	}
}
