package scenario

import (
	"strings"
	"testing"

	"wgtt/internal/sim"
)

const yamlScenario = `
name: twin
seed: 3
federation: true
horizon: 2s
road:
  segments:
    - aps: 4
    - aps: 3
      gap: 15
routes:
  - name: bus
    mph: 25
    stops: 2
    dwell: 250ms
clients:
  - route: bus
    count: 2
    board: 0
    alight: 1
`

const jsonScenario = `{
  "name": "twin",
  "seed": 3,
  "federation": true,
  "horizon": "2s",
  "road": {
    "segments": [
      {"aps": 4},
      {"aps": 3, "gap": 15}
    ]
  },
  "routes": [
    {"name": "bus", "mph": 25, "stops": 2, "dwell": "250ms"}
  ],
  "clients": [
    {"route": "bus", "count": 2, "board": 0, "alight": 1}
  ]
}`

// TestParseEquivalence holds YAML and JSON to one binding path: the
// same scenario in either syntax compiles to the identical digest.
func TestParseEquivalence(t *testing.T) {
	fromYAML, err := Parse([]byte(yamlScenario))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse([]byte(jsonScenario))
	if err != nil {
		t.Fatal(err)
	}
	cy, err := Compile(fromYAML, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := Compile(fromJSON, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cy.Digest() != cj.Digest() {
		t.Errorf("YAML and JSON compiles diverge:\n yaml %s\n json %s", cy.Digest(), cj.Digest())
	}
}

func TestParseUnknownField(t *testing.T) {
	for _, in := range []string{
		"road:\n  segments:\n    - aps: 4\nturbo: true\n",
		`{"road": {"segments": [{"aps": 4}]}, "turbo": true}`,
	} {
		if _, err := Parse([]byte(in)); err == nil || !strings.Contains(err.Error(), "turbo") {
			t.Errorf("unknown field not rejected: %v", err)
		}
	}
}

func TestParseDurForms(t *testing.T) {
	s, err := Parse([]byte("horizon: 1.5\nroad:\n  segments:\n    - aps: 4\nroutes:\n  - name: b\n    mph: 25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Horizon.D(); got != 1500*sim.Millisecond {
		t.Errorf("bare-number horizon = %v, want 1.5s", got)
	}
	s, err = Parse([]byte("horizon: 90m\nroad:\n  segments:\n    - aps: 4\nroutes:\n  - name: b\n    mph: 25\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Horizon.D(); got != 90*60*sim.Second {
		t.Errorf("duration-string horizon = %v, want 90m", got)
	}
	if _, err := Parse([]byte(`{"horizon": "soon"}`)); err == nil {
		t.Error("bad duration string parsed")
	}
}

func TestParseRejectsNonMapping(t *testing.T) {
	for _, in := range []string{"- 1\n- 2\n", "[1, 2]"} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%q parsed as a scenario", in)
		}
	}
}
