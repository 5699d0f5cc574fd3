package sim

import "math/rand"

// RNG is a deterministic random stream. Components must not share streams:
// each subsystem derives its own with Fork so that adding randomness in one
// module never perturbs another module's draws, keeping regression results
// stable across refactors.
//
// A stream's content is math/rand's: every draw equals what
// rand.New(rand.NewSource(seed)) returns for the stream's seed, and the
// distributions (Float64, NormFloat64, Intn, Perm, …) are math/rand's
// code. Only the seeding differs. math/rand fills a 607-word register
// per seed, while the streams a network builds per link draw 2 to ~100
// words, so a stream computes its first 273 draws straight from the seed
// and builds the register only when it draws a 274th (see source).
// TestSourceMatchesMathRand holds the equivalence and TestStreamPins the
// stream content of fork chains.
//
// Seeds are reduced mod 2³¹−1, as math/rand reduces them, so two
// distinct forks can share a stream.
type RNG struct {
	r   *rand.Rand
	src source
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG { return newStream(mix(uint64(seed))) }

// newStream returns the stream of math/rand's source for seed.
func newStream(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// mix is splitmix64: it decorrelates nearby seeds so that Fork("a") and
// Fork("b") from the same parent produce independent-looking streams.
func mix(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Fork derives an independent child stream named by label. The same
// (parent seed, label) pair always yields the same child stream.
func (g *RNG) Fork(label string) *RNG {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= g.src.Uint64()
	return newStream(mix(h))
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponential draw with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Uint64 returns a uniform 64-bit draw. (rand.Rand.Uint64 of a Source64
// is the source's Uint64, so this skips the indirection.)
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes element order using the stream.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
