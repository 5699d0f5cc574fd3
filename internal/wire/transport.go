package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"wgtt/internal/sim"
)

// Config describes one process's endpoint of a partitioned run.
type Config struct {
	// Self is this process's index into Addrs.
	Self int
	// Addrs lists every process's listen address in process-index
	// order: "unix:/path/to.sock" or "tcp:host:port". All processes
	// must agree on this list.
	Addrs []string
	// Digest fingerprints the run configuration (scenario, seed,
	// partition). Connections between processes with different
	// digests are refused — an SPMD run is only deterministic when
	// every process built the identical network.
	Digest [32]byte
	// StartSeq is the first exchange sequence number this process
	// will send and expects to receive: 0 for a fresh run, the
	// checkpoint's exchange count after a restore.
	StartSeq int64
	// ExchangeTimeout bounds how long Exchange waits for each peer's
	// round message, reconnects included. Zero means 30s.
	ExchangeTimeout time.Duration
	// FaultSeqs is a test hook: after a round frame with a matching
	// sequence number is written, the connection it was written on is
	// severed, exercising the reconnect-resend-dedup path mid-round.
	FaultSeqs func(seq int64) bool
	// Logf, if set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// Transport is a sim.PeerBus over a full mesh of stream connections,
// one per peer process. For each pair the lower-index process listens
// and the higher-index process dials, so every pair owns exactly one
// connection. Exchange never fails on a broken connection: outbound
// round frames are retained until implicitly acknowledged (a peer
// sending round S proves it received everything below S), the dialing
// side redials with capped exponential backoff, and the handshake's
// next-receive sequence tells the other side where to resume; the
// receiver drops duplicate sequence numbers. Only protocol violations
// — digest mismatch, sequence gap, malformed frames — are terminal.
type Transport struct {
	cfg     Config
	timeout time.Duration
	ln      net.Listener
	peers   []*peer // indexed by process; peers[cfg.Self] == nil
	stats   tstats  // atomic introspection counters (stats.go)

	closed    chan struct{}
	closeOnce sync.Once
	err       error // written once before closed is closed
}

// errClosed reports a Close-initiated shutdown (as opposed to a fatal
// protocol error, which carries its own message).
var errClosed = errors.New("wire: transport closed")

// Exchange's I/O sizes. Lockstep leaves at most two of one process's
// round frames unread on a connection: the peer may still be reading
// round S-1 when round S is written. Two frames up to maxInlineWrite
// fit the socket buffers (a Linux unix socket holds about 200 KiB,
// loopback TCP more), so Exchange writes such a frame itself and never
// waits on the peer. A larger frame could fill them, and two processes
// each writing one to the other with nobody reading would wait
// forever, so broadcast writes those from goroutines while Exchange
// reads.
const (
	readBufSize    = 4 << 10 // per connection
	maxInlineWrite = 4 << 10
)

type peer struct {
	t      *Transport
	idx    int
	dialer bool // we dial this peer (idx < cfg.Self)

	// mu guards conn, br, sent, nextRecv and everUp; it is never held
	// across network I/O. wmu serializes writers (Exchange vs.
	// reconnect resend) and is taken before mu, never while holding it.
	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader // conn's read buffer; only Exchange reads it
	sent     []sentFrame   // retained round frames, in sequence order
	nextRecv int64         // next inbound sequence we will accept
	everUp   bool          // a connection has been installed before (reconnect counting)

	wmu sync.Mutex

	// up wakes an Exchange waiting out a reconnect once install has
	// published the new connection.
	up chan struct{}
}

// sentFrame is a round frame retained until the peer acknowledges it.
type sentFrame struct {
	seq   int64
	frame []byte
}

// New opens the listener, begins dialing lower-index peers, and
// returns. Connections are established lazily: an Exchange made before
// a peer is reachable simply retains its frame and delivers it on the
// first successful handshake.
func New(cfg Config) (*Transport, error) {
	if cfg.Self < 0 || cfg.Self >= len(cfg.Addrs) {
		return nil, fmt.Errorf("wire: self index %d outside %d-process address list", cfg.Self, len(cfg.Addrs))
	}
	if len(cfg.Addrs) < 2 {
		return nil, fmt.Errorf("wire: %d-process address list; a partitioned run needs at least 2", len(cfg.Addrs))
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	t := &Transport{
		cfg:     cfg,
		timeout: cfg.ExchangeTimeout,
		closed:  make(chan struct{}),
		peers:   make([]*peer, len(cfg.Addrs)),
	}
	if t.timeout == 0 {
		t.timeout = 30 * time.Second
	}
	network, addr, err := splitAddr(cfg.Addrs[cfg.Self])
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		os.Remove(addr) // stale socket from a previous run
	}
	t.ln, err = net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Addrs[cfg.Self], err)
	}
	for i := range cfg.Addrs {
		if i == cfg.Self {
			continue
		}
		p := &peer{
			t:        t,
			idx:      i,
			dialer:   i < cfg.Self,
			nextRecv: cfg.StartSeq,
			up:       make(chan struct{}, 1),
		}
		t.peers[i] = p
		if p.dialer {
			go p.connectLoop()
		}
	}
	go t.acceptLoop()
	return t, nil
}

// splitAddr parses "unix:/path" and "tcp:host:port" endpoint syntax.
func splitAddr(a string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(a, "unix:"):
		return "unix", a[len("unix:"):], nil
	case strings.HasPrefix(a, "tcp:"):
		return "tcp", a[len("tcp:"):], nil
	}
	return "", "", fmt.Errorf("wire: address %q: want unix:/path or tcp:host:port", a)
}

// Close tears down the listener and every connection. Safe to call
// more than once and concurrently with Exchange.
func (t *Transport) Close() error {
	t.shutdown(errClosed)
	return nil
}

// shutdown latches the terminal error and severs everything. The first
// caller wins; err is published to other goroutines by the close.
func (t *Transport) shutdown(err error) {
	t.closeOnce.Do(func() {
		t.err = err
		close(t.closed)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.mu.Unlock()
		}
	})
}

// fail shuts the transport down with err and returns the terminal
// error, which is err unless another shutdown got there first.
func (t *Transport) fail(err error) error {
	t.shutdown(err)
	return t.err
}

// Exchange implements sim.PeerBus: broadcast our round message to
// every peer, then read one matching-sequence message from each on
// the calling goroutine, returned in process-index order.
func (t *Transport) Exchange(m sim.RoundMsg) ([]sim.RoundMsg, error) {
	if join := t.broadcast(m.Seq, roundFrame(m)); join != nil {
		defer join()
	}
	t0 := time.Now()
	defer func() { t.stats.observeExchange(time.Since(t0).Nanoseconds()) }()
	deadline := t0.Add(t.timeout)
	out := make([]sim.RoundMsg, 0, len(t.peers)-1)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		r, err := p.recv(m.Seq, deadline)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// broadcast sends frame to every peer. A frame up to maxInlineWrite is
// written inline. A larger one is written from one goroutine per peer,
// so that Exchange can read while they write, and broadcast returns
// the function that waits for them, which Exchange calls before it
// returns.
func (t *Transport) broadcast(seq int64, frame []byte) (join func()) {
	if len(frame) <= maxInlineWrite {
		for _, p := range t.peers {
			if p != nil {
				p.send(seq, frame)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for _, p := range t.peers {
		if p != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.send(seq, frame)
			}()
		}
	}
	return wg.Wait
}

// recv reads peer p's round seq. It drops duplicates a resend
// produced, prunes the retained frames the round acknowledges, skips
// late hellos, and waits out a reconnect, all before deadline.
func (p *peer) recv(seq int64, deadline time.Time) (sim.RoundMsg, error) {
	t := p.t
	for {
		p.mu.Lock()
		conn, br := p.conn, p.br
		p.mu.Unlock()
		if conn == nil {
			if err := p.awaitConn(seq, deadline); err != nil {
				return sim.RoundMsg{}, err
			}
			continue
		}
		conn.SetReadDeadline(deadline)
		b, err := readBuffered(br)
		if err != nil {
			select {
			case <-t.closed:
				return sim.RoundMsg{}, t.err
			default:
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return sim.RoundMsg{}, t.fail(p.noRound(seq))
			}
			conn.Close()
			p.connLost(conn)
			continue
		}
		t.stats.bytesRx.Add(int64(len(b)) + 4)
		if b[0] == frameHello {
			continue // late duplicate handshake; harmless
		}
		m, err := decodeRound(b)
		if err != nil {
			return sim.RoundMsg{}, t.fail(fmt.Errorf("wire: peer %d: %w", p.idx, err))
		}
		p.mu.Lock()
		if m.Seq < p.nextRecv {
			p.mu.Unlock()
			t.stats.dedupDrops.Add(1)
			continue // duplicate after a resend
		}
		if m.Seq > p.nextRecv {
			want := p.nextRecv
			p.mu.Unlock()
			return sim.RoundMsg{}, t.fail(fmt.Errorf("wire: peer %d skipped from round %d to %d", p.idx, want, m.Seq))
		}
		p.nextRecv++
		// The peer sending round S proves it completed exchange S-1,
		// which required our frames below S: drop them.
		acked := 0
		for acked < len(p.sent) && p.sent[acked].seq < m.Seq {
			acked++
		}
		n := copy(p.sent, p.sent[acked:])
		clear(p.sent[n:])
		p.sent = p.sent[:n]
		p.mu.Unlock()
		if m.Seq != seq {
			return sim.RoundMsg{}, t.fail(fmt.Errorf("wire: peer %d sent round %d during exchange %d", p.idx, m.Seq, seq))
		}
		return m, nil
	}
}

// awaitConn waits until install publishes a connection, the transport
// closes, or deadline passes.
func (p *peer) awaitConn(seq int64, deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-p.up:
		return nil
	case <-p.t.closed:
		return p.t.err
	case <-timer.C:
		return p.t.fail(p.noRound(seq))
	}
}

func (p *peer) noRound(seq int64) error {
	return fmt.Errorf("wire: exchange %d: no round from peer %d within %v", seq, p.idx, p.t.timeout)
}

// send retains the frame for resend and writes it if a connection is
// up. A write failure is not an Exchange error: the frame stays
// retained and the reconnect handshake replays it. The frame is
// retained under wmu, so an install either replays it or publishes its
// connection before send writes it, never both.
func (p *peer) send(seq int64, frame []byte) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	p.sent = append(p.sent, sentFrame{seq, frame})
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		return
	}
	if err := writeFrame(conn, frame); err != nil {
		p.t.cfg.Logf("wire: write to peer %d: %v", p.idx, err)
		conn.Close()
		p.connLost(conn)
		return
	}
	p.t.stats.bytesTx.Add(int64(len(frame)))
	if f := p.t.cfg.FaultSeqs; f != nil && f(seq) {
		p.t.cfg.Logf("wire: fault hook severing peer %d after seq %d", p.idx, seq)
		conn.Close()
		p.connLost(conn)
	}
}

// connLost clears the connection if it is still the one that failed
// (a replacement may already be installed) and, on the dialing side,
// starts the redial loop.
func (p *peer) connLost(conn net.Conn) {
	p.mu.Lock()
	if p.conn != conn {
		p.mu.Unlock()
		return
	}
	p.conn, p.br = nil, nil
	p.mu.Unlock()
	select {
	case <-p.t.closed:
		return
	default:
	}
	if p.dialer {
		go p.connectLoop()
	}
}

// connectLoop dials the peer with capped exponential backoff until a
// handshake succeeds or the transport closes. Only the higher-index
// process of a pair dials.
func (p *peer) connectLoop() {
	network, addr, err := splitAddr(p.t.cfg.Addrs[p.idx])
	if err != nil {
		p.t.shutdown(err)
		return
	}
	backoff := time.Millisecond
	for {
		select {
		case <-p.t.closed:
			return
		default:
		}
		conn, err := net.DialTimeout(network, addr, time.Second)
		if err == nil {
			err = p.dialHandshake(conn)
			if err == nil {
				return
			}
			conn.Close()
			var fatal *fatalError
			if errors.As(err, &fatal) {
				p.t.shutdown(fatal.err)
				return
			}
		}
		p.t.cfg.Logf("wire: dial peer %d: %v (retrying in %v)", p.idx, err, backoff)
		select {
		case <-p.t.closed:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
	}
}

// fatalError marks handshake failures that retrying cannot fix.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }

// dialHandshake runs the client side of the handshake: send our hello,
// read and verify the peer's, then install the connection.
func (p *peer) dialHandshake(conn net.Conn) error {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	p.mu.Lock()
	next := p.nextRecv
	p.mu.Unlock()
	if err := writeFrame(conn, helloFrame(hello{Proc: p.t.cfg.Self, Digest: p.t.cfg.Digest, NextRecv: next})); err != nil {
		return err
	}
	b, err := readFrame(conn)
	if err != nil {
		return err
	}
	h, err := decodeHello(b)
	if err != nil {
		return &fatalError{err}
	}
	if h.Proc != p.idx {
		return &fatalError{fmt.Errorf("wire: %s answered as process %d, want %d", p.t.cfg.Addrs[p.idx], h.Proc, p.idx)}
	}
	if h.Digest != p.t.cfg.Digest {
		return &fatalError{fmt.Errorf("wire: config digest mismatch with process %d — processes are not running the same scenario", p.idx)}
	}
	conn.SetDeadline(time.Time{})
	p.install(conn, h.NextRecv)
	return nil
}

// acceptLoop runs the server side: each inbound connection identifies
// itself with a hello; valid ones replace the peer's connection.
func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
			default:
				t.shutdown(fmt.Errorf("wire: accept: %w", err))
			}
			return
		}
		go t.handleIncoming(conn)
	}
}

func (t *Transport) handleIncoming(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	b, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	h, err := decodeHello(b)
	if err != nil {
		t.cfg.Logf("wire: rejecting connection: %v", err)
		conn.Close()
		return
	}
	if h.Proc <= t.cfg.Self || h.Proc >= len(t.peers) {
		t.cfg.Logf("wire: rejecting hello from process %d (not a dialing peer of %d)", h.Proc, t.cfg.Self)
		conn.Close()
		return
	}
	if h.Digest != t.cfg.Digest {
		t.shutdown(fmt.Errorf("wire: config digest mismatch with process %d — processes are not running the same scenario", h.Proc))
		conn.Close()
		return
	}
	p := t.peers[h.Proc]
	p.mu.Lock()
	next := p.nextRecv
	p.mu.Unlock()
	if err := writeFrame(conn, helloFrame(hello{Proc: t.cfg.Self, Digest: t.cfg.Digest, NextRecv: next})); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	p.install(conn, h.NextRecv)
}

// install makes conn the peer's live connection and replays retained
// frames from the peer's requested resume sequence. Replays count as
// resends only on a reconnect: the first connection delivers frames
// queued before it for the first time. The connection is published,
// and a waiting Exchange woken, before the replay, so that Exchange
// reads while it runs: two processes replaying large frames to each
// other must each have a reader. Holding wmu across the replay keeps a
// concurrent Exchange from interleaving a newer frame ahead of the
// replayed ones. The handshake before install reads exactly, so no
// round bytes precede the connection's read buffer.
func (p *peer) install(conn net.Conn, resendFrom int64) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.mu.Lock()
	select {
	case <-p.t.closed:
		// shutdown has run and would never close a connection
		// published now.
		p.mu.Unlock()
		conn.Close()
		return
	default:
	}
	old := p.conn
	p.conn, p.br = conn, bufio.NewReaderSize(conn, readBufSize)
	reconnect := p.everUp
	if reconnect {
		p.t.stats.reconnects.Add(1)
	}
	p.everUp = true
	var replay []sentFrame
	for _, f := range p.sent {
		if f.seq >= resendFrom {
			replay = append(replay, f)
		}
	}
	p.mu.Unlock()
	select {
	case p.up <- struct{}{}:
	default:
	}
	if old != nil {
		old.Close()
	}
	for _, f := range replay {
		if err := writeFrame(conn, f.frame); err != nil {
			p.t.cfg.Logf("wire: resend seq %d to peer %d: %v", f.seq, p.idx, err)
			conn.Close()
			p.connLost(conn)
			return
		}
		if reconnect {
			p.t.stats.resends.Add(1)
		}
		p.t.stats.bytesTx.Add(int64(len(f.frame)))
	}
}
