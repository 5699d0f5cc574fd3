package scenario

import (
	"testing"
)

// TestGenerateValid: every (seed, size) must produce a scenario that
// validates and compiles, whose compiled config passes core
// validation — Generate promises "always runnable", not "usually".
func TestGenerateValid(t *testing.T) {
	for _, size := range []SizeClass{SizeSmall, SizeMedium, SizeLarge} {
		for seed := int64(1); seed <= 20; seed++ {
			s := Generate(seed, size)
			if err := s.Validate(); err != nil {
				t.Fatalf("Generate(%d, %s): %v", seed, size, err)
			}
			c, err := Compile(s, 0, nil)
			if err != nil {
				t.Fatalf("Generate(%d, %s) compile: %v", seed, size, err)
			}
			if err := c.Config.Validate(); err != nil {
				t.Fatalf("Generate(%d, %s) config: %v", seed, size, err)
			}
			if len(c.Config.Segments) < 2 {
				t.Fatalf("Generate(%d, %s): %d segments, want >= 2 (domain-mode property tests need them)",
					seed, size, len(c.Config.Segments))
			}
			if !c.Config.Federation.Enabled {
				t.Fatalf("Generate(%d, %s): federation off", seed, size)
			}
			if len(c.Clients) == 0 {
				t.Fatalf("Generate(%d, %s): no clients", seed, size)
			}
			if c.Horizon <= 0 {
				t.Fatalf("Generate(%d, %s): horizon %v", seed, size, c.Horizon)
			}
		}
	}
}

// TestGenerateDeterminism: the same (seed, size) always yields the
// identical compiled digest; different seeds yield different scenarios.
func TestGenerateDeterminism(t *testing.T) {
	digests := map[string]int64{}
	for seed := int64(1); seed <= 10; seed++ {
		a, err := Compile(Generate(seed, SizeMedium), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compile(Generate(seed, SizeMedium), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("seed %d: two generations disagree", seed)
		}
		if prev, dup := digests[a.Digest()]; dup {
			t.Errorf("seeds %d and %d generated identical scenarios", prev, seed)
		}
		digests[a.Digest()] = seed
	}
}

func TestParseSizeClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SizeClass
	}{{"", SizeSmall}, {"small", SizeSmall}, {"medium", SizeMedium}, {"large", SizeLarge}} {
		got, err := ParseSizeClass(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSizeClass(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSizeClass("jumbo"); err == nil {
		t.Error("ParseSizeClass accepted jumbo")
	}
}
