package wire

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"wgtt/internal/sim"
)

// End-to-end: a real sim.Coordinator partition exchanging typed
// envelopes over real Unix-domain sockets must be bit-identical to the
// serial in-process run, and a journal of one process's exchanges must
// replay to the same result.

const kindE2E = sim.EnvelopeKind(2000)

func init() {
	sim.RegisterEnvelope(kindE2E, sim.EnvelopeCodec{
		Name: "wire-e2e-test",
		Encode: func(payload any, b []byte) []byte {
			return binary.BigEndian.AppendUint64(b, payload.(uint64))
		},
		Decode: func(b []byte) (any, error) {
			if len(b) != 8 {
				return nil, fmt.Errorf("wire-e2e-test: %d bytes", len(b))
			}
			return binary.BigEndian.Uint64(b), nil
		},
	})
}

// pingPong is a two-domain SPMD replica: each domain ticks every
// lookahead and every third tick posts a seeded draw to the other
// side; receipts are logged with times. The stitched logs are the
// run's signature.
type pingPong struct {
	c    *sim.Coordinator
	doms [2]*sim.Domain
	logs [2][]string
}

func newPingPong(seed int64) *pingPong {
	const lookahead = time.Millisecond
	pp := &pingPong{c: sim.NewCoordinator(lookahead)}
	pp.doms[0] = pp.c.NewDomain("left")
	pp.doms[1] = pp.c.NewDomain("right")
	fwd := pp.c.Connect(pp.doms[0], pp.doms[1], lookahead)
	rev := pp.c.Connect(pp.doms[1], pp.doms[0], lookahead)
	mbs := [2]*sim.Mailbox{fwd, rev}
	for i := range pp.doms {
		i := i
		d := pp.doms[i]
		rng := sim.NewRNG(seed).Fork(fmt.Sprintf("pp%d", i))
		mbs[1-i].OnReceive(kindE2E, func(payload any) {
			pp.logs[i] = append(pp.logs[i],
				fmt.Sprintf("d%d recv %d @%v", i, payload.(uint64), d.Loop.Now()))
		})
		var tick func(n int)
		tick = func(n int) {
			if n%3 == 0 {
				mbs[i].Post(d.Loop.Now().Add(lookahead), sim.Envelope{Kind: kindE2E, Payload: rng.Uint64()})
			}
			d.Loop.After(lookahead, func() { tick(n + 1) })
		}
		d.Loop.After(lookahead, func() { tick(0) })
	}
	return pp
}

func (pp *pingPong) signature() []string {
	var sig []string
	for i := range pp.logs {
		sig = append(sig, pp.logs[i]...)
	}
	return sig
}

// stitch builds the authoritative signature of a partitioned run from
// each domain's owning replica.
func stitch(reps []*pingPong) []string {
	var sig []string
	for i := range reps[0].logs {
		sig = append(sig, reps[i%len(reps)].logs[i]...)
	}
	return sig
}

func TestRunPartitionedOverWire(t *testing.T) {
	const until = sim.Time(40 * time.Millisecond)
	for seed := int64(1); seed <= 2; seed++ {
		serial := newPingPong(seed)
		serial.c.Run(until)
		want := serial.signature()
		if len(want) == 0 {
			t.Fatal("serial run produced an empty signature")
		}

		ts := startMesh(t, 2, nil)
		reps := []*pingPong{newPingPong(seed), newPingPong(seed)}
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				own := func(d *sim.Domain) bool { return d == reps[p].doms[p] }
				errs[p] = reps[p].c.RunPartitioned(until, own, ts[p])
			}(p)
		}
		wg.Wait()
		for p, err := range errs {
			if err != nil {
				t.Fatalf("seed %d: proc %d: %v", seed, p, err)
			}
		}
		if got := stitch(reps); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: partitioned-over-wire signature differs from serial\nserial: %v\n  wire: %v",
				seed, want, got)
		}
		for p := 0; p < 2; p++ {
			ts[p].Close()
		}
	}
}

// TestReplayReproducesPartitionedRun journals proc 0's live exchanges,
// then re-runs proc 0 alone against the journal and requires the same
// domain log — checkpoint/restore in miniature.
func TestReplayReproducesPartitionedRun(t *testing.T) {
	const seed = int64(3)
	const until = sim.Time(40 * time.Millisecond)
	path := filepath.Join(t.TempDir(), "e2e.journal")
	j, err := CreateJournal(path, testDigest)
	if err != nil {
		t.Fatal(err)
	}

	ts := startMesh(t, 2, nil)
	reps := []*pingPong{newPingPong(seed), newPingPong(seed)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var bus sim.PeerBus = ts[p]
			if p == 0 {
				bus = &JournalBus{Bus: ts[p], J: j}
			}
			own := func(d *sim.Domain) bool { return d == reps[p].doms[p] }
			errs[p] = reps[p].c.RunPartitioned(until, own, bus)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := ReadJournal(path, testDigest, -1)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != reps[0].c.Exchanges() {
		t.Fatalf("journal has %d records, coordinator made %d exchanges", len(recs), reps[0].c.Exchanges())
	}

	replay := newPingPong(seed)
	own := func(d *sim.Domain) bool { return d == replay.doms[0] }
	if err := replay.c.RunPartitioned(until, own, NewReplayBus(recs)); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(replay.logs[0], reps[0].logs[0]) {
		t.Fatalf("replayed domain log differs from the live run\nlive:   %v\nreplay: %v",
			reps[0].logs[0], replay.logs[0])
	}
}
