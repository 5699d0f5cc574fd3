package sim

import "testing"

// TestStreamPins pins the content of forked streams, the chains the
// network builds per link ("link-i-j" then "fading", "shadow" or
// "blockage"), at draws on both sides of the register's materialization.
// The constants were taken from the math/rand-seeded streams that
// predate lazy seeding; a change here re-pins every golden.
func TestStreamPins(t *testing.T) {
	at := []int{0, 1, 2, 272, 273, 274, 606, 607, 1000}
	pins := []struct {
		seed   int64
		labels []string
		want   [9]uint64
	}{
		{1, []string{"link-0-0", "fading"}, [...]uint64{0xc75b0eead128f0ab, 0xc013c15dda980c7b, 0xa90701197aa971ed, 0x3c4e9c3667123eeb, 0xaaa5048dd3296e25, 0xaf249738dfd6c2fa, 0x0eb3d5c73b6eb252, 0x7812865378000bf3, 0xcd12650b12ee5ac3}},
		{1, []string{"link-63-63", "shadow"}, [...]uint64{0x11bf4134273d6a1b, 0x3a6d38c883a52823, 0x8e1dfa5f90f7f5bb, 0xe4a7a0a743d903ee, 0x8eff6c9767fa017f, 0x025311230b537ee1, 0x56d6574d3be51224, 0x2ca53c369c0865bc, 0x234909628b54a8c0}},
		{7, []string{"link-5-2", "blockage"}, [...]uint64{0xadc98a500c26ab46, 0x82a4e2a742a231be, 0x762485c57e9fcb1c, 0xee9d47b37d886a1d, 0x2ac74ed6733fc164, 0x52b5f8674a67f5b9, 0xb60e7ca8a917e041, 0xf2b1d9e26f679564, 0xe77998939cf1ab75}},
		{0, nil, [...]uint64{0x7792bcdd5ea2ee3a, 0x740c6f7f2659a70b, 0xd735b22efac7ddb5, 0xb6730eaa4edd796b, 0xa3a99d374c7649e2, 0x448f79584155a454, 0xd7f0f223005e77ea, 0x73f393f0891dbabe, 0xb51ec561ad816a16}},
		{-1, []string{"client3"}, [...]uint64{0x9aa83b25202a0601, 0x850d24ac3c0cb72b, 0xe552625a92c9378f, 0x9f010d8feada9ec5, 0x208883c75229600a, 0xaff87adaae4de465, 0x8fcb538917b4e0c7, 0x264c98314a246d6f, 0x15e8ceb055ff1f30}},
	}
	for _, p := range pins {
		g := NewRNG(p.seed)
		for _, l := range p.labels {
			g = g.Fork(l)
		}
		next := 0
		for k := 0; next < len(at); k++ {
			v := g.Uint64()
			if k != at[next] {
				continue
			}
			if v != p.want[next] {
				t.Errorf("NewRNG(%d).Fork%q: draw %d = %#016x, pinned %#016x", p.seed, p.labels, k, v, p.want[next])
			}
			next++
		}
	}
}
