package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// kindTestRing is a test-only typed envelope: the ring harness's
// neighbour notification, as data.
const kindTestRing EnvelopeKind = 1000

// kindTestLocal is a test-only local-only kind (nil Encode).
const kindTestLocal EnvelopeKind = 1001

type ringVal struct {
	Val, From int
}

func init() {
	RegisterEnvelope(kindTestRing, EnvelopeCodec{
		Name: "test-ring",
		Encode: func(p any, b []byte) []byte {
			v := p.(*ringVal)
			b = binary.BigEndian.AppendUint64(b, uint64(v.Val))
			return binary.BigEndian.AppendUint64(b, uint64(v.From))
		},
		Decode: func(b []byte) (any, error) {
			if len(b) != 16 {
				return nil, errors.New("test-ring: bad length")
			}
			return &ringVal{
				Val:  int(int64(binary.BigEndian.Uint64(b))),
				From: int(int64(binary.BigEndian.Uint64(b[8:]))),
			}, nil
		},
	})
	RegisterEnvelope(kindTestLocal, EnvelopeCodec{Name: "test-local"})
}

// envRing is the typed-envelope twin of ringSignature's harness: same
// ring of domains, same RNG streams, but neighbour notifications are
// Envelopes handled by per-mailbox OnReceive handlers — so the harness
// can run partitioned across (simulated) processes.
type envRing struct {
	c    *Coordinator
	doms []*Domain
	logs [][]string
}

func newEnvRing(seed int64, nDom int) *envRing {
	const lookahead = 200 * Microsecond
	r := &envRing{
		c:    NewCoordinator(lookahead),
		doms: make([]*Domain, nDom),
		logs: make([][]string, nDom),
	}
	for i := range r.doms {
		r.doms[i] = r.c.NewDomain(fmt.Sprintf("d%d", i))
	}
	boxes := make(map[[2]int]*Mailbox)
	connect := func(i, j int, extra int) {
		mb := r.c.Connect(r.doms[i], r.doms[j], lookahead+Duration(extra)*50*Microsecond)
		dst := j
		mb.OnReceive(kindTestRing, func(p any) {
			v := p.(*ringVal)
			r.logs[dst] = append(r.logs[dst], fmt.Sprintf("d%d recv %d from d%d @%v",
				dst, v.Val, v.From, r.doms[dst].Loop.Now()))
		})
		boxes[[2]int{i, j}] = mb
	}
	for i := range r.doms {
		next := (i + 1) % nDom
		connect(i, next, NewRNG(seed).Fork(fmt.Sprintf("delay%d", i)).Intn(5))
		connect(next, i, NewRNG(seed).Fork(fmt.Sprintf("delayr%d", i)).Intn(5))
	}
	for i := range r.doms {
		i := i
		d := r.doms[i]
		rng := NewRNG(seed).Fork(fmt.Sprintf("dom%d", i))
		var tick func()
		fires := 0
		tick = func() {
			fires++
			now := d.Loop.Now()
			r.logs[i] = append(r.logs[i], fmt.Sprintf("d%d tick%d @%v r%d",
				i, fires, now, rng.Intn(1000)))
			if fires%3 == 0 {
				dst := (i + 1) % nDom
				if fires%2 == 0 {
					dst = (i + nDom - 1) % nDom
				}
				mb := boxes[[2]int{i, dst}]
				at := now.Add(mb.minDelay + Duration(rng.Intn(300))*Microsecond)
				mb.Post(at, Envelope{Kind: kindTestRing, Payload: &ringVal{Val: fires * (i + 1), From: i}})
			}
			if fires < 40 {
				d.Loop.After(Duration(50+rng.Intn(200))*Microsecond, tick)
			}
		}
		d.Loop.After(Duration(10+rng.Intn(50))*Microsecond, tick)
	}
	return r
}

// meshBus is an in-process PeerBus: one buffered channel per directed
// proc pair. Peers' messages are returned in proc-index order, which
// stands in for the wire transport's deterministic peer ordering. A
// proc that fails closes the shared abort channel so its peers unblock
// with an error instead of deadlocking.
type meshBus struct {
	self  int
	chans [][]chan RoundMsg // chans[i][j]: i -> j
	abort chan struct{}
	once  *sync.Once
}

func newMesh(n int) []*meshBus {
	chans := make([][]chan RoundMsg, n)
	for i := range chans {
		chans[i] = make([]chan RoundMsg, n)
		for j := range chans[i] {
			chans[i][j] = make(chan RoundMsg, 4)
		}
	}
	abort := make(chan struct{})
	once := &sync.Once{}
	buses := make([]*meshBus, n)
	for i := range buses {
		buses[i] = &meshBus{self: i, chans: chans, abort: abort, once: once}
	}
	return buses
}

func (b *meshBus) fail() { b.once.Do(func() { close(b.abort) }) }

func (b *meshBus) Exchange(m RoundMsg) ([]RoundMsg, error) {
	n := len(b.chans)
	for j := 0; j < n; j++ {
		if j != b.self {
			select {
			case b.chans[b.self][j] <- m:
			case <-b.abort:
				return nil, errors.New("peer aborted")
			}
		}
	}
	var msgs []RoundMsg
	for j := 0; j < n; j++ {
		if j != b.self {
			var pm RoundMsg
			select {
			case pm = <-b.chans[j][b.self]:
			case <-b.abort:
				return nil, errors.New("peer aborted")
			}
			if pm.Seq != m.Seq {
				return nil, fmt.Errorf("proc %d: peer %d at seq %d, self at %d",
					b.self, j, pm.Seq, m.Seq)
			}
			msgs = append(msgs, pm)
		}
	}
	return msgs, nil
}

// runPartitionedRing runs nProc SPMD replicas of the envelope ring,
// proc p owning the domains with index%nProc == p, and returns the
// stitched signature (each domain's log taken from its owner).
func runPartitionedRing(t *testing.T, seed int64, nDom, nProc int, slices []Time) []string {
	t.Helper()
	rings := make([]*envRing, nProc)
	for p := range rings {
		rings[p] = newEnvRing(seed, nDom)
	}
	buses := newMesh(nProc)
	var wg sync.WaitGroup
	errs := make([]error, nProc)
	for p := range rings {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			owned := func(d *Domain) bool { return domIndex(rings[p], d)%nProc == p }
			for _, until := range slices {
				if err := rings[p].c.RunPartitioned(until, owned, buses[p]); err != nil {
					errs[p] = err
					buses[p].fail()
					return
				}
			}
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	var sig []string
	for i := 0; i < nDom; i++ {
		sig = append(sig, rings[i%nProc].logs[i]...)
	}
	return sig
}

func domIndex(r *envRing, d *Domain) int {
	for i, dd := range r.doms {
		if dd == d {
			return i
		}
	}
	return -1
}

// TestRunPartitionedParity is the multi-process half of the
// conservative-sync guarantee: the same domain graph run whole and run
// partitioned across 2 and 3 simulated processes — including a sliced
// schedule — produces bit-identical event logs.
func TestRunPartitionedParity(t *testing.T) {
	until := Time(50 * Millisecond)
	for seed := int64(1); seed <= 3; seed++ {
		whole := newEnvRing(seed, 5)
		whole.c.Run(until)
		var want []string
		for i := range whole.logs {
			want = append(want, whole.logs[i]...)
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: empty signature", seed)
		}

		for _, nProc := range []int{2, 3} {
			got := runPartitionedRing(t, seed, 5, nProc, []Time{until})
			compareSig(t, seed, fmt.Sprintf("%d-proc", nProc), want, got)
		}
		// Slicing the run at arbitrary times must not change anything:
		// the flush at each boundary leaves the same empty-mailbox
		// state Run leaves.
		got := runPartitionedRing(t, seed, 5, 2, []Time{Time(13 * Millisecond), Time(37 * Millisecond), until})
		compareSig(t, seed, "2-proc sliced", want, got)
	}
}

func compareSig(t *testing.T, seed int64, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("seed %d %s: log length %d, want %d", seed, label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("seed %d %s: first divergence at entry %d:\n whole: %s\n part:  %s",
				seed, label, i, want[i], got[i])
		}
	}
}

// TestRunPartitionedLocalOnlyKind pins the hard error when a local-only
// envelope (nil Encode) is posted toward a remote receiver.
func TestRunPartitionedLocalOnlyKind(t *testing.T) {
	const lookahead = 200 * Microsecond
	nProc := 2
	rings := make([]*envRing, nProc)
	for p := range rings {
		r := &envRing{c: NewCoordinator(lookahead)}
		r.doms = []*Domain{r.c.NewDomain("d0"), r.c.NewDomain("d1")}
		mb := r.c.Connect(r.doms[0], r.doms[1], lookahead)
		mb.OnReceive(kindTestLocal, func(any) {})
		d := r.doms[0]
		d.Loop.After(Millisecond, func() {
			mb.Post(d.Loop.Now().Add(lookahead), Envelope{Kind: kindTestLocal, Payload: struct{}{}})
		})
		rings[p] = r
	}
	buses := newMesh(nProc)
	var wg sync.WaitGroup
	errs := make([]error, nProc)
	for p := range rings {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			owned := func(d *Domain) bool { return (d.id)%nProc == p }
			errs[p] = rings[p].c.RunPartitioned(Time(10*Millisecond), owned, buses[p])
			if errs[p] != nil {
				buses[p].fail()
			}
		}()
	}
	wg.Wait()
	if errs[0] == nil {
		t.Fatal("local-only kind crossed a process boundary without error")
	}
}
