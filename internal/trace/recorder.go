// Package trace is the switch-protocol event log the paper's §5.1
// methodology calls for ("we log packet flows sent to and from both the
// controller and the client using tcpdump"): a causal flight recorder
// whose stitched records render as a tcpdump-style text dump (Dump) or
// a Chrome/Perfetto timeline (WriteChrome).
package trace

import (
	"fmt"
	"io"
	"sort"

	"wgtt/internal/packet"
	"wgtt/internal/sim"
	"wgtt/internal/telemetry"
)

// This file is the causal flight recorder — one Recorder per WGTT
// segment, written only by the domain that runs the segment, so
// recording never shares state across domains and stays legal in every
// execution mode: one domain, split domains, and sharded processes.
// Record is the only instrumentation call a switch-protocol step makes;
// telemetry's switch counters and handoff histograms are views of the
// recorder's counts and span fold.
//
// Records are written synchronously from existing protocol handlers:
// recording schedules no events and draws no randomness, so the event
// schedule — and every golden pin — is bit-identical whatever the ring
// capacity. Causality comes from the sim layer's trace register
// (sim.Loop.SetTrace): the controller stamps each switch transaction
// with a globally unique trace id at the issue site, the register
// flows through timers, backhaul deliveries and cross-process
// envelopes, and every record captures the id active when its handler
// ran. Stitching the per-shard rings back together by trace id yields
// one causal timeline per handoff, across processes.

// Op identifies a flight-recorder record's protocol step.
type Op uint8

// Flight-recorder operations, in rough protocol order.
const (
	OpNone    Op = iota
	OpIssue      // controller issued a Stop (A=from AP, B=to AP; A=-1 adoption)
	OpStop       // old AP received the Stop (A=new AP)
	OpStart      // old AP sent the Start, radio ioctl done (A=queue index, B=new AP or -1 remote)
	OpStartRx    // new AP received the Start (A=stale packets flushed)
	OpAck        // controller saw the SwitchAck (A=serving AP)
	OpRetx       // controller retransmitted the Stop (A=retry count)
	OpAbandon    // controller gave up the switch: retry exhaustion (A=retries), a failed federated export (B=its target segment), or a release mid-switch (B=the new owner)
	OpClaim      // controller claimed an unowned client overheard above threshold
	OpExport     // controller exported the client mid-handoff (A=held pkts, B=destination segment)
	OpImport     // controller imported the client (A=resume index k)
	OpRelease    // controller released ownership to the directory's winner (A=stood-down AP or -1, B=new owner segment)
)

var opNames = [...]string{
	OpNone: "none", OpIssue: "issue", OpStop: "stop", OpStart: "start",
	OpStartRx: "start-rx", OpAck: "ack", OpRetx: "retx", OpAbandon: "abandon",
	OpClaim: "claim", OpExport: "export", OpImport: "import", OpRelease: "release",
}

// String returns the op's wire-stable lowercase name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Record is one flight-recorder entry. Fixed-size and self-contained:
// recording is a single ring-slot copy, and records marshal losslessly
// for cross-process stitching. A and B are per-Op arguments (see the Op
// constants).
type Record struct {
	At       sim.Time   `json:"at"`
	Trace    uint64     `json:"trace"`
	SwitchID uint32     `json:"sw"`
	Domain   int16      `json:"dom"`  // segment index, -1 = server domain
	Node     int16      `json:"node"` // global AP id, -1 = the domain's controller
	Op       Op         `json:"op"`
	Client   packet.MAC `json:"client"`
	A        int32      `json:"a"`
	B        int32      `json:"b"`
}

// Recorder is one segment's switch-protocol recorder: per-(node, op)
// counts, the handoff span fold, and an optional fixed-capacity ring of
// Records. A nil Recorder (a baseline plane has none) records nothing.
// Not goroutine-safe: it is written only from its segment's loop
// callbacks.
type Recorder struct {
	domain  int16
	counts  map[nodeOp]int
	spans   *telemetry.Spans
	recs    []Record // the ring; empty at capacity 0
	next    int
	filled  bool
	total   uint64
	anoms   []Anomaly
	maxAnom int
}

type nodeOp struct {
	node int16
	op   Op
}

// NewRecorder returns the recorder of segment seg (its records' Domain)
// with a ring holding the last capacity records; capacity <= 0 keeps
// the counts and the span fold but no ring.
func NewRecorder(seg int, capacity int) *Recorder {
	return &Recorder{
		domain:  int16(seg),
		counts:  make(map[nodeOp]int),
		spans:   telemetry.NewSpans(),
		recs:    make([]Record, max(capacity, 0)),
		maxAnom: 64,
	}
}

// Record takes one protocol step. It counts the step under (Node, Op)
// and folds it into the handoff spans: an issue with a from-AP (A >= 0)
// begins a span keyed by switch id, the first start marks it, ack ends
// it, and abandon or export drops it. With a ring it then appends the
// record, stamped with the recorder's domain, overwriting oldest-first.
// Apart from a first-seen (node, op) pair and map growth, only a step
// that completes a span allocates: the fold's list of completed
// handoffs grows.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	r.counts[nodeOp{rec.Node, rec.Op}]++
	switch rec.Op {
	case OpIssue:
		if rec.A >= 0 {
			r.spans.Begin(rec.SwitchID, rec.At, int(rec.A), int(rec.B))
		}
	case OpStart:
		r.spans.MarkStart(rec.SwitchID, rec.At)
	case OpAck:
		r.spans.End(rec.SwitchID, rec.At)
	case OpAbandon, OpExport:
		r.spans.Drop(rec.SwitchID)
	}
	if len(r.recs) == 0 {
		return
	}
	rec.Domain = r.domain
	r.recs[r.next] = rec
	r.next++
	r.total++
	if r.next == len(r.recs) {
		r.next = 0
		r.filled = true
	}
}

// Count returns how many op steps node has recorded: node -1 is the
// segment's controller, an AP counts under its global id.
func (r *Recorder) Count(node int, op Op) int {
	if r == nil {
		return 0
	}
	return r.counts[nodeOp{int16(node), op}]
}

// Spans returns the segment's handoff span fold.
func (r *Recorder) Spans() *telemetry.Spans { return r.spans }

// Total returns the number of records ever written to the ring
// (including ones it has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.filled {
		return len(r.recs)
	}
	return r.next
}

// Records returns the held records oldest-first, as a copy.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	out := make([]Record, 0, r.Len())
	if r.filled {
		out = append(out, r.recs[r.next:]...)
	}
	return append(out, r.recs[:r.next]...)
}

// AnomalyKind names a trigger.
type AnomalyKind uint8

// Anomaly triggers.
const (
	AnomalyLatency AnomalyKind = iota + 1 // handoff latency outside the configured band
	AnomalyUnowned                        // unowned-client count above threshold
	AnomalyStall                          // a sync round stalled in wall-clock time
)

var anomalyNames = map[AnomalyKind]string{
	AnomalyLatency: "handoff-latency", AnomalyUnowned: "unowned-spike", AnomalyStall: "stalled-round",
}

// String returns the kind's wire-stable name.
func (k AnomalyKind) String() string {
	if s, ok := anomalyNames[k]; ok {
		return s
	}
	return fmt.Sprintf("anomaly%d", uint8(k))
}

// Anomaly is one trigger firing: what, when (virtual time), which trace
// (zero when not tied to one handoff), and the offending value (latency
// ms, unowned count, stalled exchange seq — per kind).
type Anomaly struct {
	At    sim.Time    `json:"at"`
	Kind  AnomalyKind `json:"kind"`
	Trace uint64      `json:"trace"`
	Value float64     `json:"value"`
}

// Anomaly notes a trigger firing on a recorder with a ring. Bounded
// (the first 64 per recorder) so a pathological run cannot grow memory;
// the flight-recorder window around each is cut lazily at export time,
// not here.
func (r *Recorder) Anomaly(a Anomaly) {
	if r == nil || len(r.recs) == 0 || len(r.anoms) >= r.maxAnom {
		return
	}
	r.anoms = append(r.anoms, a)
}

// Anomalies returns the noted anomalies in firing order, as a copy.
func (r *Recorder) Anomalies() []Anomaly {
	if r == nil {
		return nil
	}
	return append([]Anomaly(nil), r.anoms...)
}

// Stitch merges per-shard record sets into one deterministic timeline:
// sorted by virtual time, then trace id, then domain, node, op and the
// remaining fields, so any permutation of the same shards yields the
// identical slice.
func Stitch(shards ...[]Record) []Record {
	var out []Record
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Trace != b.Trace {
			return a.Trace < b.Trace
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.SwitchID != b.SwitchID {
			return a.SwitchID < b.SwitchID
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return out
}

// Handoff is one switch transaction reassembled from stitched records.
type Handoff struct {
	Trace    uint64
	SwitchID uint32
	Client   packet.MAC
	From, To int   // global AP ids; From -1 for adoptions
	Domain   int16 // domain that issued the switch

	Issue, Stop, Start, StartRx, Ack sim.Time
	HasIssue, HasStop, HasStart      bool
	HasStartRx, HasAck               bool
	Retx, Flushed                    int
	Exported, Abandoned              bool
}

// Completed reports whether the handoff ran to its SwitchAck.
func (h Handoff) Completed() bool { return h.HasIssue && h.HasAck }

// TotalMs is the issue→ack latency in milliseconds (completed handoffs).
func (h Handoff) TotalMs() float64 {
	return float64(h.Ack.Sub(h.Issue)) / float64(sim.Millisecond)
}

// Handoffs folds a stitched timeline into per-transaction summaries,
// keyed by trace id, in first-record order. Records without a trace id
// are skipped.
func Handoffs(recs []Record) []Handoff {
	byTrace := map[uint64]*Handoff{}
	var order []uint64
	get := func(r Record) *Handoff {
		h, ok := byTrace[r.Trace]
		if !ok {
			h = &Handoff{Trace: r.Trace, SwitchID: r.SwitchID, Client: r.Client, From: -1, To: -1}
			byTrace[r.Trace] = h
			order = append(order, r.Trace)
		}
		return h
	}
	for _, r := range recs {
		if r.Trace == 0 {
			continue
		}
		h := get(r)
		switch r.Op {
		case OpIssue:
			h.Issue, h.HasIssue = r.At, true
			h.From, h.To = int(r.A), int(r.B)
			h.SwitchID, h.Client, h.Domain = r.SwitchID, r.Client, r.Domain
		case OpStop:
			if !h.HasStop {
				h.Stop, h.HasStop = r.At, true
			}
		case OpStart:
			if !h.HasStart {
				h.Start, h.HasStart = r.At, true
			}
		case OpStartRx:
			if !h.HasStartRx {
				h.StartRx, h.HasStartRx = r.At, true
			}
			h.Flushed += int(r.A)
		case OpAck:
			h.Ack, h.HasAck = r.At, true
		case OpRetx:
			h.Retx++
		case OpAbandon:
			h.Abandoned = true
		case OpExport:
			h.Exported = true
		}
	}
	out := make([]Handoff, 0, len(order))
	for _, id := range order {
		out = append(out, *byTrace[id])
	}
	return out
}

// Dump writes records one per line, tcpdump-style: virtual time,
// domain, node, op, switch id, client, trace id, and the op's A/B
// arguments (see the Op constants).
func Dump(w io.Writer, recs []Record) error {
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "%v dom=%d node=%d %-8s #%d %s trace=%#x a=%d b=%d\n",
			r.At, r.Domain, r.Node, r.Op, r.SwitchID, r.Client, r.Trace, r.A, r.B); err != nil {
			return err
		}
	}
	return nil
}

// DumpAnomalies writes a human-readable report: each anomaly followed
// by the records inside ±window of its virtual time, in Dump's format.
// recs must be a stitched (time-ordered) timeline.
func DumpAnomalies(w io.Writer, recs []Record, anoms []Anomaly, window sim.Duration) error {
	for _, a := range anoms {
		if _, err := fmt.Fprintf(w, "anomaly %s at %v trace=%#x value=%g\n", a.Kind, a.At, a.Trace, a.Value); err != nil {
			return err
		}
		lo, hi := a.At.Add(-window), a.At.Add(window)
		i := sort.Search(len(recs), func(i int) bool { return recs[i].At >= lo })
		j := sort.Search(len(recs), func(i int) bool { return recs[i].At > hi })
		if err := Dump(w, recs[i:j]); err != nil {
			return err
		}
	}
	return nil
}
