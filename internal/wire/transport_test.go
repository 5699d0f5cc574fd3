package wire

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wgtt/internal/deploy"
	"wgtt/internal/sim"
)

var testDigest = func() [32]byte {
	var d [32]byte
	copy(d[:], "wire-transport-test")
	return d
}()

func udsAddrs(t testing.TB, n int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("p%d.sock", i))
	}
	return addrs
}

// startMesh brings up n transports over Unix sockets in-process.
func startMesh(t testing.TB, n int, mutate func(i int, c *Config)) []*Transport {
	t.Helper()
	addrs := udsAddrs(t, n)
	ts := make([]*Transport, n)
	for i := range ts {
		cfg := Config{
			Self:            i,
			Addrs:           addrs,
			Digest:          testDigest,
			ExchangeTimeout: 20 * time.Second,
			Logf:            t.Logf,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		tr, err := New(cfg)
		if err != nil {
			t.Fatalf("New(proc %d): %v", i, err)
		}
		t.Cleanup(func() { tr.Close() })
		ts[i] = tr
	}
	return ts
}

// testRound is the deterministic payload proc sends for exchange seq;
// Boxes[0].Box encodes the sender so receivers can verify provenance.
func testRound(proc int, seq int64) sim.RoundMsg {
	return sim.RoundMsg{
		Seq:     seq,
		Next:    sim.Time(seq*100 + int64(proc)),
		HasNext: true,
		Boxes: []sim.BoxBatch{{Box: proc, Envelopes: []sim.WireEnvelope{{
			At:   sim.Time(seq),
			Kind: 9,
			Data: []byte(fmt.Sprintf("proc %d round %d", proc, seq)),
		}}}},
	}
}

// runExchanges drives every transport through rounds lockstep exchanges
// and verifies each receives every peer's exact payload, in process-
// index order, with no loss, duplication, or reordering.
func runExchanges(t *testing.T, ts []*Transport, rounds int64) {
	t.Helper()
	runRounds(t, ts, rounds, testRound)
}

// runRounds is runExchanges with round(proc, seq) as every payload.
func runRounds(t *testing.T, ts []*Transport, rounds int64, round func(proc int, seq int64) sim.RoundMsg) {
	t.Helper()
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for p := range ts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := int64(0); seq < rounds; seq++ {
				if errs[p] = checkExchange(ts[p], p, len(ts), seq, round); errs[p] != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Errorf("proc %d: %v", p, err)
		}
	}
}

// checkExchange has tr, process proc of n, exchange round(proc, seq)
// and checks it receives every peer's round(q, seq) byte for byte, in
// process-index order.
func checkExchange(tr *Transport, proc, n int, seq int64, round func(proc int, seq int64) sim.RoundMsg) error {
	out, err := tr.Exchange(round(proc, seq))
	if err != nil {
		return fmt.Errorf("exchange %d: %w", seq, err)
	}
	if len(out) != n-1 {
		return fmt.Errorf("exchange %d: %d peer messages, want %d", seq, len(out), n-1)
	}
	for k, m := range out {
		q := k
		if q >= proc {
			q++
		}
		got, want := encodeRound(m), encodeRound(round(q, seq))
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			return fmt.Errorf("exchange %d: peer slot %d: %d-byte round differs from proc %d's %d bytes at byte %d",
				seq, k, len(got), q, len(want), i)
		}
	}
	return nil
}

func TestTransportExchange(t *testing.T) {
	runExchanges(t, startMesh(t, 3, nil), 50)
}

// faultSeqsFromSchedule maps a deploy.FaultSchedule's outage windows
// onto exchange sequence numbers: with conservative sync, exchange seq
// happens at virtual time ~seq*lookahead, so a trunk blackout window
// translates to severing the transport during the matching rounds.
func faultSeqsFromSchedule(f deploy.FaultSchedule, lookahead sim.Duration) func(int64) bool {
	return func(seq int64) bool {
		at := time.Duration(seq) * lookahead
		for _, o := range f.Outages {
			if at >= o.Start && at < o.End {
				return true
			}
		}
		return false
	}
}

// TestTransportReconnectMidRound severs the connection mid-run — after
// round frames are already on the wire — at sequence numbers derived
// from a deploy.FaultSchedule, and requires the exchange stream to
// come through lossless anyway via reconnect, resend, and dedup. When
// the dialing side severs it must also redial; when the listening side
// severs, its Exchange waits until the dialer notices and comes back.
func TestTransportReconnectMidRound(t *testing.T) {
	for _, c := range []struct {
		name    string
		severer int
	}{{"dialer", 1}, {"listener", 0}} {
		t.Run(c.name, func(t *testing.T) { testReconnectMidRound(t, c.severer) })
	}
}

func testReconnectMidRound(t *testing.T, severer int) {
	const lookahead = 200 * time.Microsecond // deploy.Trunk default PropDelay
	sched := deploy.FaultSchedule{Outages: []deploy.Outage{
		{A: -1, B: -1, Start: 1 * time.Millisecond, End: 1400 * time.Microsecond},
		{A: -1, B: -1, Start: 5 * time.Millisecond, End: 5600 * time.Microsecond},
	}}
	if err := sched.Validate(0); err != nil {
		t.Fatal(err)
	}
	var kills atomic.Int64
	match := faultSeqsFromSchedule(sched, lookahead)
	ts := startMesh(t, 2, func(i int, c *Config) {
		if i == severer {
			c.FaultSeqs = func(seq int64) bool {
				if !match(seq) {
					return false
				}
				kills.Add(1)
				return true
			}
		}
	})
	runExchanges(t, ts, 40) // rounds 0..39 span both outage windows
	if got := kills.Load(); got == 0 {
		t.Fatal("fault hook never fired; the reconnect path was not exercised")
	} else {
		t.Logf("connection severed %d times", got)
	}
	var reconnects, resends int64
	for _, tr := range ts {
		st := tr.Stats()
		reconnects += st.Reconnects
		resends += st.Resends
	}
	if reconnects == 0 || resends == 0 {
		t.Fatalf("reconnects=%d resends=%d after severed connections; want both > 0", reconnects, resends)
	}
}

func TestTransportDigestMismatch(t *testing.T) {
	var other [32]byte
	copy(other[:], "some-other-config")
	ts := startMesh(t, 2, func(i int, c *Config) {
		c.ExchangeTimeout = 5 * time.Second
		if i == 1 {
			c.Digest = other
		}
	})
	_, err := ts[0].Exchange(testRound(0, 0))
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("listener accepted a peer with a different config digest: err=%v", err)
	}
}

// newTransport starts process self of addrs on its own and closes it
// at cleanup.
func newTransport(t *testing.T, self int, addrs []string, timeout time.Duration) *Transport {
	t.Helper()
	tr, err := New(Config{Self: self, Addrs: addrs, Digest: testDigest, ExchangeTimeout: timeout, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New(proc %d): %v", self, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestTransportLateStartPeer(t *testing.T) {
	// The dialer's first exchanges happen before the listener exists:
	// frames are retained and must be delivered on the first handshake.
	addrs := udsAddrs(t, 2)
	mk := func(self int) *Transport { return newTransport(t, self, addrs, 20*time.Second) }
	t1 := mk(1) // dialer comes up first; proc 0's socket doesn't exist yet
	done := make(chan error, 1)
	go func() {
		out, err := t1.Exchange(testRound(1, 0))
		if err == nil && len(out) != 1 {
			err = fmt.Errorf("got %d peer messages, want 1", len(out))
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let a few dial attempts fail
	t0 := mk(0)
	if _, err := t0.Exchange(testRound(0, 0)); err != nil {
		t.Fatalf("late listener exchange: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("early dialer exchange: %v", err)
	}
	// The dialer's frame waited for the first connection; delivering it
	// then is its first send, not a resend.
	for i, tr := range []*Transport{t0, t1} {
		if st := tr.Stats(); st.Resends != 0 || st.Reconnects != 0 {
			t.Errorf("proc %d: resends=%d reconnects=%d on a first connection; want 0 and 0", i, st.Resends, st.Reconnects)
		}
	}
}

// largeRound alternates rounds whose envelopes total 2 MiB, far above
// a unix socket's buffer, with empty rounds. Each envelope repeats a
// 251-byte pattern keyed by sender, round and envelope, so a shifted,
// truncated or misrouted payload cannot compare equal.
func largeRound(proc int, seq int64) sim.RoundMsg {
	m := sim.RoundMsg{Seq: seq, Next: sim.Time(seq), HasNext: true}
	if seq%2 == 1 {
		return m
	}
	for k := 0; k < 4; k++ {
		pat := make([]byte, 251)
		x := uint32(proc)*1000003 + uint32(seq)*7919 + uint32(k)
		for i := range pat {
			x = x*1664525 + 1013904223
			pat[i] = byte(x >> 24)
		}
		data := bytes.Repeat(pat, (512<<10)/len(pat)+1)
		m.Boxes = append(m.Boxes, sim.BoxBatch{Box: proc*4 + k, Envelopes: []sim.WireEnvelope{{
			At: sim.Time(seq), Kind: 9, Data: data,
		}}})
	}
	return m
}

// TestTransportLargeFramesBothWays has every process write frames
// larger than the socket buffers to every other at once. Some side
// must read while the others write, or they all wait on each other. A
// stuck read fails after the short exchange timeout; a stuck write
// never reaches it, so a watchdog closes the transports instead.
func TestTransportLargeFramesBothWays(t *testing.T) {
	const timeout = 5 * time.Second
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%dprocs", n), func(t *testing.T) {
			ts := startMesh(t, n, func(_ int, c *Config) { c.ExchangeTimeout = timeout })
			for _, tr := range ts {
				waitConnected(t, tr)
			}
			defer watchdog(t, ts, 4*timeout).Stop()
			runRounds(t, ts, 6, largeRound)
		})
	}
	// The dialer retains a large round before the listener exists, and
	// the listener retains its own before the dialer's next attempt (it
	// backs off for milliseconds), so the first connection usually
	// opens with a large replay each way.
	t.Run("late-start", func(t *testing.T) {
		addrs := udsAddrs(t, 2)
		t1 := newTransport(t, 1, addrs, timeout) // the dialer first: proc 0's socket doesn't exist yet
		done := make(chan error, 1)
		go func() { done <- checkExchange(t1, 1, 2, 0, largeRound) }()
		for t1.PeerStates()[0].Retained == 0 {
			time.Sleep(time.Millisecond)
		}
		t0 := newTransport(t, 0, addrs, timeout)
		defer watchdog(t, []*Transport{t0, t1}, 4*timeout).Stop()
		if err := checkExchange(t0, 0, 2, 0, largeRound); err != nil {
			t.Errorf("proc 0: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("proc 1: %v", err)
		}
	})
}

// watchdog fails t and closes ts, unblocking any Exchange, unless
// stopped within d.
func watchdog(t *testing.T, ts []*Transport, d time.Duration) *time.Timer {
	return time.AfterFunc(d, func() {
		t.Errorf("exchanges still running after %v: a writer is stuck", d)
		for _, tr := range ts {
			tr.Close()
		}
	})
}

// waitConnected polls until tr reports every peer connected.
func waitConnected(t *testing.T, tr *Transport) {
	t.Helper()
	for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(time.Millisecond) {
		up := true
		for _, ps := range tr.PeerStates() {
			up = up && ps.Connected
		}
		if up {
			return
		}
	}
	t.Fatal("peers never connected")
}

// silentPeer returns process 0 of a two-process run whose peer never
// exchanges: with connected, the peer is up and the connection live;
// without, the peer never starts.
func silentPeer(t *testing.T, connected bool, timeout time.Duration) *Transport {
	t.Helper()
	if !connected {
		return newTransport(t, 0, udsAddrs(t, 2), timeout)
	}
	ts := startMesh(t, 2, func(_ int, c *Config) { c.ExchangeTimeout = timeout })
	waitConnected(t, ts[0])
	return ts[0]
}

// TestTransportCloseUnblocksExchange calls Close from another goroutine
// while Exchange waits for a silent peer; Exchange must return the
// closed error long before its timeout.
func TestTransportCloseUnblocksExchange(t *testing.T) {
	for _, connected := range []bool{true, false} {
		t.Run(fmt.Sprintf("connected=%v", connected), func(t *testing.T) {
			tr := silentPeer(t, connected, 20*time.Second)
			done := make(chan error, 1)
			go func() {
				_, err := tr.Exchange(testRound(0, 0))
				done <- err
			}()
			// Close once the round is on its way, so Exchange is past its
			// write and waiting on the peer.
			for connected && tr.Stats().BytesTx == 0 {
				time.Sleep(time.Millisecond)
			}
			tr.Close()
			select {
			case err := <-done:
				if !errors.Is(err, errClosed) {
					t.Fatalf("Exchange after Close returned %v, want %v", err, errClosed)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Exchange still blocked 5s after Close")
			}
		})
	}
}

// TestTransportSilentPeerTimesOut has Exchange wait for a silent peer:
// it must fail after ExchangeTimeout naming the peer, and leave the
// transport shut down.
func TestTransportSilentPeerTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	for _, connected := range []bool{true, false} {
		t.Run(fmt.Sprintf("connected=%v", connected), func(t *testing.T) {
			tr := silentPeer(t, connected, timeout)
			start := time.Now()
			_, err := tr.Exchange(testRound(0, 0))
			elapsed := time.Since(start)
			want := fmt.Sprintf("wire: exchange 0: no round from peer 1 within %v", timeout)
			if err == nil || err.Error() != want {
				t.Fatalf("Exchange with a silent peer returned %v, want %q", err, want)
			}
			if elapsed < timeout {
				t.Fatalf("Exchange gave up after %v, before its %v timeout", elapsed, timeout)
			}
			select {
			case <-tr.closed:
			default:
				t.Fatal("transport still open after an exchange timeout")
			}
			if _, err := tr.Exchange(testRound(0, 1)); err == nil || err.Error() != want {
				t.Fatalf("Exchange after the timeout returned %v, want the latched %q", err, want)
			}
		})
	}
}

// BenchmarkTransportExchange times one lockstep exchange between two
// transports on unix sockets in one process: an op is both sides'
// Exchange of one round. "empty" is the common round of a sharded
// corridor, a horizon and no envelopes; "64KiB" carries one 64 KiB
// envelope each way, large enough to take the writer-goroutine path.
func BenchmarkTransportExchange(b *testing.B) {
	for _, bc := range []struct {
		name string
		data []byte
	}{{"empty", nil}, {"64KiB", bytes.Repeat([]byte{0x5a}, 64<<10)}} {
		b.Run(bc.name, func(b *testing.B) {
			round := func(proc int, seq int64) sim.RoundMsg {
				m := sim.RoundMsg{Seq: seq, Next: sim.Time(seq), HasNext: true}
				if bc.data != nil {
					m.Boxes = []sim.BoxBatch{{Box: proc, Envelopes: []sim.WireEnvelope{{At: sim.Time(seq), Kind: 9, Data: bc.data}}}}
				}
				return m
			}
			ts := startMesh(b, 2, func(_ int, c *Config) { c.Logf = nil })
			exchange := func(proc int, from, to int64) error {
				for seq := from; seq <= to; seq++ {
					if _, err := ts[proc].Exchange(round(proc, seq)); err != nil {
						return err
					}
				}
				return nil
			}
			// both runs rounds from..to on both sides and returns once
			// both are done, so the timed window below holds every
			// allocation of rounds 1..N whole.
			peer := make(chan error, 1)
			both := func(from, to int64) {
				go func() { peer <- exchange(1, from, to) }()
				if err := exchange(0, from, to); err != nil {
					b.Fatal(err)
				}
				if err := <-peer; err != nil {
					b.Fatal(err)
				}
			}
			both(0, 0) // warm-up: connect
			b.ReportAllocs()
			b.ResetTimer()
			both(1, int64(b.N))
			b.StopTimer()
		})
	}
}

func TestSplitAddr(t *testing.T) {
	if net, a, err := splitAddr("unix:/tmp/x.sock"); err != nil || net != "unix" || a != "/tmp/x.sock" {
		t.Fatalf("unix: got (%q, %q, %v)", net, a, err)
	}
	if net, a, err := splitAddr("tcp:127.0.0.1:7100"); err != nil || net != "tcp" || a != "127.0.0.1:7100" {
		t.Fatalf("tcp: got (%q, %q, %v)", net, a, err)
	}
	if _, _, err := splitAddr("quic:nope"); err == nil {
		t.Fatal("splitAddr accepted an unknown scheme")
	}
}
