package wgtt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"wgtt/internal/core"
	"wgtt/internal/telemetry"
	"wgtt/internal/trace"
)

// These tests pin the flight recorder's acceptance guarantees: the
// recorder perturbs nothing (telemetry and figures are byte-identical
// with tracing on or off), and the per-process shards of a sharded run
// stitch into exactly the in-process causal timeline — every completed
// handoff appearing once, phases in causal order, and the per-handoff
// latencies reproducing the handoff span histograms bucket for bucket.

// flightRecCap comfortably exceeds a corridor ride's record volume, so
// no ring ever wraps and the stitched timeline is the full history.
const flightRecCap = 1 << 16

// buildCorridor builds the corridor scenario with the given recorder
// capacity (0 = disabled) and runs it to completion.
func buildCorridor(t *testing.T, seed int64, recCap int) *ServeRun {
	t.Helper()
	sr, err := BuildServeScenario("corridor", Options{Seed: seed, Mutate: func(c *Config) {
		c.FlightRecorder = recCap
	}})
	if err != nil {
		t.Fatal(err)
	}
	sr.Net.Run(sr.Dur)
	return sr
}

// TestFlightRecorderOffOnParity requires the event schedule — goodput
// figures and the full telemetry snapshot — to be bit-identical with
// the recorder on and off: recording is purely observational, and trace
// ids are assigned either way.
func TestFlightRecorderOffOnParity(t *testing.T) {
	off := buildCorridor(t, 1, 0)
	on := buildCorridor(t, 1, flightRecCap)

	if len(on.Net.FlightRecords()) == 0 {
		t.Fatal("recorder-on run produced no flight records")
	}
	if got := off.Net.FlightRecords(); len(got) != 0 {
		t.Fatalf("recorder-off run produced %d flight records", len(got))
	}
	offFigs, onFigs := off.Figures(nil), on.Figures(nil)
	if !reflect.DeepEqual(offFigs, onFigs) {
		t.Errorf("client figures diverge: off %v, on %v", offFigs, onFigs)
	}
	offText := snapshotText(t, off.Net.MetricsSnapshot())
	onText := snapshotText(t, on.Net.MetricsSnapshot())
	if offText != onText {
		i := 0
		for i < len(offText) && i < len(onText) && offText[i] == onText[i] {
			i++
		}
		t.Errorf("telemetry diverges at byte %d with the recorder on", i)
	}
}

// TestDomainFlightRecordParity requires the corridor's stitched
// flight-recorder timeline — and so its text view — to be identical
// under DomainsSerial and DomainsParallel at seeds 1–3.
func TestDomainFlightRecordParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ride := func(mode core.DomainMode) ([]TraceRecord, string) {
				opt := Options{Seed: seed, Mutate: func(c *Config) { c.FlightRecorder = flightRecCap }}
				r := corridorSetup(opt, mode, 3, 0)
				r.Net.Run(r.Dur)
				recs := r.Net.FlightRecords()
				var text bytes.Buffer
				if err := trace.Dump(&text, recs); err != nil {
					t.Fatal(err)
				}
				return recs, text.String()
			}
			serial, serialText := ride(core.DomainsSerial)
			parallel, parallelText := ride(core.DomainsParallel)
			if len(serial) == 0 {
				t.Fatal("serial run produced no flight records")
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("records diverge: serial %d, parallel %d", len(serial), len(parallel))
			}
			if serialText != parallelText {
				t.Errorf("text view diverges\n%s", firstDiff(serialText, parallelText))
			}
		})
	}
}

// TestMultiProcessStitchedTimeline is the acceptance pin for
// cross-process stitching: a two-process corridor run (seeds 1–3) with
// the flight recorder on must yield per-process trace shards that
// stitch into exactly the in-process timeline, with every completed
// handoff appearing once, its stop→start→ack phases in causal order,
// and the per-handoff totals matching the handoff span histograms.
func TestMultiProcessStitchedTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("three corridor rides in-process plus six in subprocesses")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := buildCorridor(t, seed, flightRecCap)
			refRecs := ref.Net.FlightRecords()
			if len(refRecs) == 0 {
				t.Fatal("reference run produced no flight records")
			}

			peers := udsPeers(t, 2)
			common := []string{
				"-scenario", "corridor", "-seed", fmt.Sprint(seed),
				"-partition", "segs,server", "-peers", peers, "-report",
				"-flight-recorder", fmt.Sprint(flightRecCap),
			}
			outs := runServeProcs(t, common, [][]string{
				{"-proc", "0"}, {"-proc", "1"},
			})
			var reports []ServeReport
			var shards [][]TraceRecord
			for i, out := range outs {
				var rep ServeReport
				if err := json.Unmarshal(out, &rep); err != nil {
					t.Fatalf("proc %d report: %v\n%s", i, err, out)
				}
				reports = append(reports, rep)
				shards = append(shards, rep.Trace)
			}
			stitched := StitchTrace(shards...)
			if !reflect.DeepEqual(stitched, refRecs) {
				t.Fatalf("stitched timeline diverges from in-process: %d records sharded, %d in-process",
					len(stitched), len(refRecs))
			}

			// Every switch transaction appears exactly once: one issue,
			// at most one ack, per trace id across both shards.
			issues, acks := map[uint64]int{}, map[uint64]int{}
			for _, r := range stitched {
				switch r.Op {
				case trace.OpIssue:
					issues[r.Trace]++
				case trace.OpAck:
					acks[r.Trace]++
				}
			}
			for id, c := range issues {
				if c != 1 {
					t.Errorf("trace %#x issued %d times", id, c)
				}
			}
			for id, c := range acks {
				if c > 1 {
					t.Errorf("trace %#x acked %d times", id, c)
				}
				if issues[id] == 0 {
					t.Errorf("trace %#x acked but never issued", id)
				}
			}

			// Phases in causal order on every reassembled handoff.
			handoffs := TraceHandoffs(stitched)
			completed := 0
			for _, h := range handoffs {
				if h.HasStop && h.HasIssue && h.Stop < h.Issue {
					t.Errorf("trace %#x: stop %v before issue %v", h.Trace, h.Stop, h.Issue)
				}
				if h.HasStart && h.HasStop && h.Start < h.Stop {
					t.Errorf("trace %#x: start %v before stop %v", h.Trace, h.Start, h.Stop)
				}
				if h.HasStartRx && h.HasStart && h.StartRx < h.Start {
					t.Errorf("trace %#x: start-rx %v before start %v", h.Trace, h.StartRx, h.Start)
				}
				if h.Completed() {
					completed++
					if h.Ack < h.Issue {
						t.Errorf("trace %#x: ack %v before issue %v", h.Trace, h.Ack, h.Issue)
					}
				}
			}
			if completed == 0 {
				t.Fatal("no completed handoffs in the stitched timeline")
			}

			// Per-handoff totals reproduce the span histograms: for each
			// segment, the completed local handoffs' total_ms multiset
			// must land in exactly the buckets the merged telemetry
			// recorded (spans End only switches with a local from-AP).
			_, snap := mergeServeReports(t, reports)
			for si := 0; si < 3; si++ {
				name := fmt.Sprintf("seg%d/handoff/total_ms", si)
				var hist *telemetry.HistogramPoint
				for i := range snap.Histograms {
					if snap.Histograms[i].Name == name {
						hist = &snap.Histograms[i]
						break
					}
				}
				if hist == nil {
					t.Fatalf("merged snapshot has no histogram %q", name)
				}
				want := make([]int64, len(hist.Buckets))
				var n int64
				for _, h := range handoffs {
					if int(h.Domain) != si || !h.Completed() || h.From < 0 {
						continue
					}
					n++
					bi := len(hist.Bounds)
					for i, b := range hist.Bounds {
						if h.TotalMs() <= b {
							bi = i
							break
						}
					}
					want[bi]++
				}
				if n != hist.Count {
					t.Errorf("%s: %d completed handoffs in the timeline, histogram counted %d", name, n, hist.Count)
				}
				if !reflect.DeepEqual(want, hist.Buckets) {
					t.Errorf("%s: timeline buckets %v, histogram %v", name, want, hist.Buckets)
				}
			}
		})
	}
}

// exportRides rides the 3-segment corridor at seeds 1–3 and the
// 4-segment ring-federated corridor in domain mode mode and requires
// every export record's import — the record with the same trace id —
// to lie in the domain the export's B names: B is the destination
// segment on both trunk kinds.
func exportRides(t *testing.T, mode core.DomainMode) {
	type ride struct {
		name     string
		seed     int64
		segments int
		fed      bool
	}
	rides := []ride{{"corridor-seed1", 1, 3, false}, {"corridor-seed2", 2, 3, false},
		{"corridor-seed3", 3, 3, false}, {"ring-federated", 1, 4, true}}
	for _, rd := range rides {
		rd := rd
		t.Run(rd.name, func(t *testing.T) {
			t.Parallel()
			opt := Options{Seed: rd.seed, Mutate: func(c *Config) {
				c.FlightRecorder = flightRecCap
				c.Federation.Enabled, c.Federation.Ring = rd.fed, rd.fed
			}}
			r := corridorSetup(opt, mode, rd.segments, 0)
			r.Net.Run(r.Dur)
			recs := r.Net.FlightRecords()
			imports := map[uint64][]int16{}
			for _, rec := range recs {
				if rec.Op == trace.OpImport {
					imports[rec.Trace] = append(imports[rec.Trace], rec.Domain)
				}
			}
			exports := 0
			for _, rec := range recs {
				if rec.Op != trace.OpExport {
					continue
				}
				exports++
				if doms := imports[rec.Trace]; len(doms) != 1 || int32(doms[0]) != rec.B {
					t.Errorf("export of %s by domain %d at %v names segment %d; its import lies in domains %v",
						rec.Client, rec.Domain, rec.At, rec.B, doms)
				}
			}
			if exports == 0 {
				t.Fatal("the ride exported no client")
			}
		})
	}
}

// TestExportRecordsNameImporter checks export records on the single
// loop and on serial domains.
func TestExportRecordsNameImporter(t *testing.T) {
	for _, mode := range []core.DomainMode{core.SingleLoop, core.DomainsSerial} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) { exportRides(t, mode) })
	}
}

// TestDomainExportRecordsNameImporter checks export records on
// parallel domains.
func TestDomainExportRecordsNameImporter(t *testing.T) {
	exportRides(t, core.DomainsParallel)
}
