package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenario drives arbitrary bytes through the whole front end:
// parse → validate → compile. The invariants are absolute — no input
// ever panics any stage, and a scenario that validates always compiles
// to a config that passes core's Config.Validate. The corpus seeds
// from every checked-in example scenario plus a few structural edge
// cases, so the fuzzer starts from realistic documents instead of
// noise.
func FuzzScenario(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*"))
	if err != nil {
		f.Fatal(err)
	}
	if len(examples) == 0 {
		f.Fatal("no example scenarios found to seed the corpus")
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("road:\n  segments:\n    - aps: 4\nroutes:\n  - name: b\n    mph: 25\n"))
	f.Add([]byte(`{"road": {"segments": [{"aps": 1}]}, "routes": [{"name": "r", "mps": 1}]}`))
	f.Add([]byte("---\n"))
	f.Add([]byte("a:\n\tb\n"))
	f.Add([]byte("routes: [1, 2"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // malformed input must error, never panic
		}
		c, err := Compile(s, 1, nil)
		if err != nil {
			return // validation rejected it; that's a fine outcome
		}
		// The compile contract: a scenario that passed Validate yields a
		// config core accepts and a positive horizon.
		if err := c.Config.Validate(); err != nil {
			t.Fatalf("valid scenario compiled to invalid config: %v\nscenario: %s", err, data)
		}
		if c.Horizon < 0 {
			t.Fatalf("negative horizon %v from: %s", c.Horizon, data)
		}
		// Compilation must be deterministic.
		again, err := Compile(s, 1, nil)
		if err != nil {
			t.Fatalf("second compile failed: %v", err)
		}
		if c.Digest() != again.Digest() {
			t.Fatalf("nondeterministic compile for: %s", data)
		}
	})
}
