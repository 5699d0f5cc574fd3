package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// pinSet maps workload → ride key ("<seed>/<variant>") → goodput digest.
type pinSet map[string]map[string]string

// pinnedSeeds is how many consecutive seeds from 1 -pin records per
// workload: enough for a 15-second run at any seed up to about 20 to be
// checked ride by ride.
const pinnedSeeds = 40

//go:embed testdata/signatures.json
var signaturesJSON []byte

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(signaturesJSON, &p); err != nil {
		return nil, fmt.Errorf("testdata/signatures.json: %w", err)
	}
	return p, nil
}

// writePins rides every variant of the given workloads at seeds
// 1..pinnedSeeds in their reference form — the corridor under
// DomainsSerial and serve2 in-process — and writes the digests to path,
// keeping the entries of workloads not ridden. Because timed runs ride
// the corridor in parallel and serve2 sharded, the pins also hold those
// executors equal to their references.
func writePins(path string, ws []*workload, o rideOpts, log io.Writer) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	o.reference = true
	for _, w := range ws {
		got := map[string]string{}
		for _, r := range w.rides(1, pinnedSeeds) {
			res := rideOnce(w, r, o)
			if res.err != nil {
				return res.err
			}
			got[res.key] = res.digest
		}
		pins[w.name] = got
		fmt.Fprintf(log, "pinned %d %s rides\n", len(got), w.name)
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
