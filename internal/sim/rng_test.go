package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestSourceMatchesMathRand holds a stream to math/rand draw for draw:
// newStream(seed) against rand.New(rand.NewSource(seed)), over the seeds
// where the reduction mod 2³¹−1 has edges and over 1,000 random ones.
// The Uint64 walk compares every draw, up to 1,200 on the edge seeds and
// past the lazy draws' end (272/273/274) on the rest; the mixed walk then
// runs every distribution math/rand provides on top of the source, for
// up to ~1,300 draws, so it crosses the register's materialization, its
// first reuse (606/607) and draw 1,000 inside Perms, Shuffles and
// normal draws (on 77%, 50% and 16% of the seeds).
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, lehmerM - 1, lehmerM, -lehmerM, lehmerM + 1, -lehmerM - 1,
		2 * lehmerM, -3 * lehmerM, 12345 * lehmerM, seedZero, -seedZero,
		seedZero + lehmerM, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	edges := len(seeds)
	drv := rand.New(rand.NewSource(20261019))
	for range 1000 {
		seeds = append(seeds, int64(drv.Uint64()))
	}
	for n, seed := range seeds {
		walk := rngTap + 2
		if n < edges {
			walk = 1200
		}
		ours, ref := newStream(seed), rand.New(rand.NewSource(seed))
		for k := range walk {
			if a, b := ours.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, k, a, b)
			}
		}
		ours, ref = newStream(seed), rand.New(rand.NewSource(seed))
		ops := drv.Intn(400)
		for k := range ops {
			if err := sameOp(drv.Intn(7), drv.Intn(16)+1, ours, ref); err != "" {
				t.Fatalf("seed %d: op %d of %d: %s", seed, k, ops, err)
			}
		}
	}
}

// sameOp draws one operation from both streams and reports any
// difference.
func sameOp(op, n int, g *RNG, ref *rand.Rand) string {
	switch op {
	case 0:
		if a, b := g.Uint64(), ref.Uint64(); a != b {
			return "Uint64 differs"
		}
	case 1:
		if a, b := g.Float64(), ref.Float64(); a != b {
			return "Float64 differs"
		}
	case 2:
		if a, b := g.Intn(n), ref.Intn(n); a != b {
			return "Intn differs"
		}
	case 3:
		if a, b := g.NormFloat64(), ref.NormFloat64(); a != b {
			return "NormFloat64 differs"
		}
	case 4:
		if a, b := g.ExpFloat64(), ref.ExpFloat64(); a != b {
			return "ExpFloat64 differs"
		}
	case 5:
		if a, b := g.Perm(n), ref.Perm(n); !reflect.DeepEqual(a, b) {
			return "Perm differs"
		}
	case 6:
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = i, i
		}
		g.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		ref.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !reflect.DeepEqual(a, b) {
			return "Shuffle differs"
		}
	}
	return ""
}

// TestSourceReseed checks that Seed restarts a stream, lazy or
// materialized, at math/rand's stream for the new seed.
func TestSourceReseed(t *testing.T) {
	var s source
	for _, drawn := range []int{0, 5, 300} {
		s.Seed(int64(drawn) + 11)
		for range drawn {
			s.Uint64()
		}
		s.Seed(42)
		ref := rand.NewSource(42).(rand.Source64)
		for k := range 700 {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("after %d draws and a reseed: draw %d = %#x, math/rand %#x", drawn, k, a, b)
			}
		}
	}
}

// mathRNG is RNG over math/rand's own source, as streams were built
// before lazy seeding: the reference for the per-draw benchmarks.
type mathRNG struct{ r *rand.Rand }

func (g mathRNG) Uint64() uint64   { return g.r.Uint64() }
func (g mathRNG) Float64() float64 { return g.r.Float64() }

// BenchmarkStream is the per-draw cost of a long stream, past its
// register's materialization, against math/rand's source.
func BenchmarkStream(b *testing.B) {
	type stream interface {
		Uint64() uint64
		Float64() float64
	}
	streams := []struct {
		name string
		new  func() stream
	}{
		{"sim", func() stream { return NewRNG(1) }},
		{"mathrand", func() stream { return mathRNG{rand.New(rand.NewSource(1))} }},
	}
	for _, s := range streams {
		b.Run("uint64/"+s.name, func(b *testing.B) {
			g := s.new()
			for range 2 * rngLen {
				g.Uint64()
			}
			b.ResetTimer()
			for range b.N {
				g.Uint64()
			}
		})
		b.Run("float64/"+s.name, func(b *testing.B) {
			g := s.new()
			for range 2 * rngLen {
				g.Float64()
			}
			b.ResetTimer()
			for range b.N {
				g.Float64()
			}
		})
	}
}

// BenchmarkFork is one fork that then draws as a wifi5g fader does (72
// Float64), against seeding math/rand for the same draws.
func BenchmarkFork(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		for range b.N {
			f := g.Fork("fading")
			for range 72 {
				f.Float64()
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		for range b.N {
			f := rand.New(rand.NewSource(int64(g.Uint64())))
			for range 72 {
				f.Float64()
			}
		}
	})
}
