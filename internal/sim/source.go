package sim

import "math/rand"

// math/rand's generator is the additive lagged-Fibonacci register of
// Mitchell and Reeds: 607 words, tap lag 273. Seed fills the register
// from a Lehmer sequence and leaves the tap at 0 and the feed at 334.
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap
	rngMask = 1<<63 - 1

	lehmerM  = 1<<31 - 1 // the Lehmer generator's modulus
	lehmerA  = 48271     // its multiplier (seedrand's A)
	seedZero = 89482311  // what Seed substitutes for a seed ≡ 0
)

// seedTab holds, per word i of the initial register, what the word needs
// besides the seed: jump = 48271^(21+3i) mod (2³¹−1), the Lehmer step
// from the reduced seed to the first of the word's three draws, and
// math/rand's cooked constant for the word. Read-only after init.
var seedTab [rngLen]struct {
	jump   uint64
	cooked int64
}

// source is a rand.Source64 whose every draw equals what
// math/rand.NewSource returns for the same seed, without building the
// 607-word register up front.
//
// Draw k of a fresh register is vec[333−k] + vec[606−k], and for k < 273
// neither word has been written by an earlier draw. So the first 273
// draws each read two words of the initial register, and a word is
// three Lehmer steps from the seed, each a jump-table multiply. The
// register is built (materialized) only at draw 273: filled word by word
// as Seed fills it, then stepped over the draws already returned, so it
// stands where math/rand's would and later draws are math/rand's own
// step. A source is single-owner, like the stream that embeds it.
type source struct {
	x0        uint64         // the seed reduced as Seed reduces it, in [1, 2³¹−1)
	n         int            // draws returned before the register existed
	vec       *[rngLen]int64 // the register; nil until draw rngTap
	tap, feed int
}

// Seed resets the source to math/rand's stream for seed.
func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = seedZero
	}
	*s = source{x0: uint64(seed)}
}

// Int63 returns a non-negative 63-bit draw, as math/rand's source does.
// It repeats Uint64's body rather than calling it, so that a draw through
// rand.Rand costs one call past the interface, as math/rand's does.
func (s *source) Int63() int64 {
	v := s.vec
	if v == nil {
		return int64(s.lazy() & rngMask)
	}
	return int64(s.step(v) & rngMask)
}

// Uint64 returns the next 64-bit draw.
func (s *source) Uint64() uint64 {
	v := s.vec
	if v == nil {
		return s.lazy()
	}
	return s.step(v)
}

// lazy returns the next draw while the register does not exist: one of
// the first 273 straight from the seed, or else the draw after
// materializing the register.
func (s *source) lazy() uint64 {
	if k := s.n; k < rngTap {
		s.n++
		return uint64(s.word(rngFeed-1-k) + s.word(rngLen-1-k))
	}
	s.materialize()
	return s.step(s.vec)
}

// step is math/rand's rngSource.Uint64 on the materialized register v.
func (s *source) step(v *[rngLen]int64) uint64 {
	tap, feed := s.tap-1, s.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	s.tap, s.feed = tap, feed
	x := v[feed] + v[tap]
	v[feed] = x
	return uint64(x)
}

// materialize builds the register Seed would have built and replays the
// s.n draws already returned on it.
func (s *source) materialize() {
	s.vec, s.tap, s.feed = new([rngLen]int64), 0, rngFeed
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for range s.n {
		s.step(s.vec)
	}
}

// word returns word i of the register Seed builds: the Lehmer draws
// x₂₁₊₃ᵢ, x₂₂₊₃ᵢ and x₂₃₊₃ᵢ after the seed, packed as Seed packs them,
// xor the cooked constant.
func (s *source) word(i int) int64 {
	e := &seedTab[i]
	x := mulmod(e.jump, s.x0)
	u := int64(x) << 40
	x = mulmod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulmod(x, lehmerA)
	return u ^ int64(x) ^ e.cooked
}

// mulmod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−1): the value
// math/rand's seedrand computes by Schrage's method when b is 48271.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

func init() {
	a3 := mulmod(mulmod(lehmerA, lehmerA), lehmerA)
	j := uint64(1)
	for range 21 {
		j = mulmod(j, lehmerA)
	}
	for i := range seedTab {
		seedTab[i].jump = j
		j = mulmod(j, a3)
	}

	// math/rand does not export its cooked constants, so recover them
	// from the first 607 draws at seed 1. Draw k ≥ 273 adds the draw
	// made 273 earlier (which wrote the tap word it reads) to the feed
	// word (333−k) mod 607, still initial; that gives words 0–60 and
	// 334–606. Draw k < 273 adds initial words 333−k and 606−k, the
	// latter now known, which gives words 61–333. The cooked constant is
	// the initial word xor its seed-1 Lehmer part.
	ref := rand.NewSource(1).(rand.Source64)
	var out, v0 [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		v0[(rngFeed-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v0[rngFeed-1-k] = out[k] - v0[rngLen-1-k]
	}
	one := source{x0: 1}
	for i := range seedTab {
		seedTab[i].cooked = v0[i] ^ one.word(i) // cooked is still 0 here
	}
}
