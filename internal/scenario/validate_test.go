package scenario

import (
	"strings"
	"testing"
)

// TestValidateErrors is the malformed-scenario table: every class of
// schema abuse must fail validation with a specific, stable error
// string — dangling references, overlapping timetables, zero-length
// segments, out-of-range speeds, and the rest.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		want string
	}{
		{
			name: "dangling route reference",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
clients:
  - route: tram
`,
			want: `client group 0 references unknown route "tram"`,
		},
		{
			name: "dangling stop reference",
			yaml: `
road:
  segments:
    - aps: 4
    - aps: 4
routes:
  - name: bus
    mph: 25
    stops: 3
clients:
  - route: bus
    board: 5
    alight: 6
`,
			want: `client group 0 boards at stop 5 but route "bus" has 3 stops`,
		},
		{
			name: "overlapping timetable",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    departures: [2s, 1s]
`,
			want: `route "bus" timetable overlaps: departure 1 (1s) does not follow departure 0 (2s)`,
		},
		{
			name: "zero-length segment",
			yaml: `
road:
  segments:
    - aps: 4
    - aps: 0
routes:
  - name: bus
    mph: 25
`,
			want: `road segment 1 has no APs (zero-length segment)`,
		},
		{
			name: "speed of zero",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
`,
			want: `route "bus" speed 0 m/s out of range (0, 130] m/s`,
		},
		{
			name: "speed past the rail limit",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: maglev
    mps: 200
`,
			want: `route "maglev" speed 200 m/s out of range (0, 130] m/s`,
		},
		{
			name: "undeclared u-turn point",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    uturn-at: 11
`,
			want: `route "bus" u-turns at x=11 but the road declares no u-turn point there`,
		},
		{
			name: "u-turn outside the road",
			yaml: `
road:
  segments:
    - aps: 4
  uturns: [99]
routes:
  - name: bus
    mph: 25
`,
			want: `u-turn at x=99 lies outside the road span [0, 22.5]`,
		},
		{
			name: "stop outside the road",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    stops-at: [99]
`,
			want: `route "bus" stop 0 at x=99 lies outside the road span [0, 22.5]`,
		},
		{
			name: "stops not increasing",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    stops-at: [15, 10]
`,
			want: `route "bus" stops-at must be strictly increasing (stop 1 at x=10)`,
		},
		{
			name: "both stop forms",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    stops: 2
    stops-at: [10]
`,
			want: `route "bus" sets both stops and stops-at`,
		},
		{
			name: "both speed forms",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    mps: 10
`,
			want: `route "bus" sets both mph and mps`,
		},
		{
			name: "headway without runs",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    headway: 5s
`,
			want: `route "bus" has a headway but no runs`,
		},
		{
			name: "alight before board",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
    stops: 3
clients:
  - route: bus
    board: 2
    alight: 1
`,
			want: `client group 0 alights at stop 1 before boarding at stop 2`,
		},
		{
			name: "unknown workload",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
clients:
  - route: bus
    workload: carrier-pigeon
`,
			want: `client group 0 has unknown workload "carrier-pigeon"`,
		},
		{
			name: "ring needs three segments",
			yaml: `
ring-trunk: true
road:
  segments:
    - aps: 4
    - aps: 4
routes:
  - name: bus
    mph: 25
`,
			want: `a ring trunk needs at least 3 road segments, got 2`,
		},
		{
			name: "federation needs multi-segment",
			yaml: `
federation: true
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
`,
			want: `federation needs at least 2 road segments, got 1`,
		},
		{
			name: "unknown channel backend",
			yaml: `
channel: carrier-wave
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
`,
			want: `unknown channel backend "carrier-wave"`,
		},
		{
			name: "unknown scheme",
			yaml: `
scheme: psychic
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
`,
			want: `unknown scheme "psychic"`,
		},
		{
			name: "no routes",
			yaml: `
road:
  segments:
    - aps: 4
`,
			want: `no routes`,
		},
		{
			name: "no segments",
			yaml: `
routes:
  - name: bus
    mph: 25
`,
			want: `road has no segments`,
		},
		{
			name: "duplicate route name",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
  - name: bus
    mph: 20
`,
			want: `duplicate route name "bus"`,
		},
		{
			name: "departure index out of range",
			yaml: `
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
clients:
  - route: bus
    departure: 1
`,
			want: `client group 0 departure 1 out of range: route "bus" has 1`,
		},
		{
			name: "negative horizon",
			yaml: `
horizon: -5s
road:
  segments:
    - aps: 4
routes:
  - name: bus
    mph: 25
`,
			want: `negative horizon -5s`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.yaml))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = s.Validate()
			if err == nil {
				t.Fatal("validated a malformed scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q\ndoes not contain %q", err, tc.want)
			}
			// Compile must surface the identical validation error.
			if _, cerr := Compile(s, 1, nil); cerr == nil || cerr.Error() != err.Error() {
				t.Errorf("Compile error %v, want %v", cerr, err)
			}
		})
	}
}
