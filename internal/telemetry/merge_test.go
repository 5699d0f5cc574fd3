package telemetry

import (
	"strings"
	"testing"

	"wgtt/internal/sim"
)

// TestMergePermutationDeterminism pins the shard-merge contract the
// multi-process parity tests lean on: exporting each shard separately
// and merging the parts in ANY order yields byte-identical output — in
// every export format — to the whole-registry snapshot. Without this,
// a partitioned run's merged report would depend on process arrival
// order.
func TestMergePermutationDeterminism(t *testing.T) {
	r := NewRegistry()
	shardNames := []string{"", "seg0", "seg1", "seg2"} // "" = root shard
	for i, name := range shardNames {
		sc := r.Scope("server")
		if name != "" {
			sc = r.NewShard(name)
		}
		sc.Counter("pkts").Add(int64(100 + i))
		sc.Gauge("depth").Set(float64(i) * 1.5)
		h := sc.Histogram("lat_ms", []float64{1, 10, 100})
		for j := 0; j <= i; j++ {
			h.Observe(float64(j * 7))
		}
		se := sc.Series("load", func() float64 { return float64(i) })
		_ = se
		sc.Sample(sim.Time(100 * sim.Millisecond))
		sp := NewSpans()
		sc.Spans("handoff", sp)
		sp.Begin(uint32(i+1), sim.Time(sim.Millisecond), 0, 1)
		sp.MarkStart(uint32(i+1), sim.Time(3*sim.Millisecond))
		sp.End(uint32(i+1), sim.Time(sim.Duration(5+i)*sim.Millisecond))
	}
	at := sim.Time(200 * sim.Millisecond)

	render := func(s *Snapshot) map[Format]string {
		out := map[Format]string{}
		for _, f := range []Format{FormatText, FormatJSON, FormatCSV, FormatProm} {
			var sb strings.Builder
			if err := s.Write(&sb, f); err != nil {
				t.Fatal(err)
			}
			out[f] = sb.String()
		}
		return out
	}
	ref := render(r.Snapshot(at))

	// One snapshot per shard, as a partitioned run would export them.
	parts := make([]*Snapshot, len(shardNames))
	for i, name := range shardNames {
		name := name
		parts[i] = r.SnapshotShards(at, func(shard string) bool { return shard == name })
	}

	var permute func(rest, picked []*Snapshot)
	checked := 0
	permute = func(rest, picked []*Snapshot) {
		if len(rest) == 0 {
			got := render(MergeSnapshots(picked...))
			for f, want := range ref {
				if got[f] != want {
					t.Fatalf("permutation %d: format %v diverges from whole-registry snapshot\n got: %q\nwant: %q",
						checked, f, got[f], want)
				}
			}
			checked++
			return
		}
		for i := range rest {
			next := append(append([]*Snapshot{}, rest[:i]...), rest[i+1:]...)
			permute(next, append(picked, rest[i]))
		}
	}
	permute(parts, nil)
	if want := 24; checked != want { // 4! orderings
		t.Fatalf("checked %d permutations, want %d", checked, want)
	}
}
