// Package wire carries the sim coordinator's round protocol between
// processes: length-prefixed frames over Unix-domain or TCP sockets,
// per-peer sequence numbers with resend-on-reconnect, and a journal
// that makes a partitioned run checkpointable by deterministic replay.
//
// Framing. Every frame is [u32 big-endian payload length][payload];
// payload[0] is the frame type. A hello frame authenticates a
// connection (magic, protocol version, sender process index, config
// digest) and carries the sequence number the sender expects to
// receive next, which doubles as the resend request after a reconnect.
// A round frame is one sim.RoundMsg: sequence number, next-event
// horizon, flush marker, and the per-mailbox envelope batches.
//
// All integers are big-endian fixed width or uvarint as noted; times
// and sequence numbers are two's-complement int64 in a u64 slot.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"wgtt/internal/sim"
)

// Protocol constants.
const (
	magic        = "WGTT"
	version      = 2 // v2: per-envelope causal trace id
	frameHello   = 1
	frameRound   = 2
	maxFrameSize = 64 << 20 // hard cap against corrupt length prefixes
)

// hello is the per-connection handshake.
type hello struct {
	Proc     int
	Digest   [32]byte
	NextRecv int64
}

// helloFrame encodes h as a complete hello frame.
func helloFrame(h hello) []byte {
	b := newFrame(1 + 4 + 2 + 2 + 32 + 8)
	b = append(b, frameHello)
	b = append(b, magic...)
	b = binary.BigEndian.AppendUint16(b, version)
	b = binary.BigEndian.AppendUint16(b, uint16(h.Proc))
	b = append(b, h.Digest[:]...)
	return sealFrame(binary.BigEndian.AppendUint64(b, uint64(h.NextRecv)))
}

// encodeHello returns h's hello-frame payload.
func encodeHello(h hello) []byte { return helloFrame(h)[4:] }

func decodeHello(b []byte) (hello, error) {
	var h hello
	if len(b) != 1+4+2+2+32+8 || b[0] != frameHello {
		return h, fmt.Errorf("wire: malformed hello (%d bytes)", len(b))
	}
	b = b[1:]
	if string(b[:4]) != magic {
		return h, errors.New("wire: bad magic — peer is not a wgtt trunk endpoint")
	}
	if v := binary.BigEndian.Uint16(b[4:]); v != version {
		return h, fmt.Errorf("wire: protocol version %d, want %d", v, version)
	}
	h.Proc = int(binary.BigEndian.Uint16(b[6:]))
	copy(h.Digest[:], b[8:40])
	h.NextRecv = int64(binary.BigEndian.Uint64(b[40:]))
	return h, nil
}

// encodeRound serializes one RoundMsg as a round-frame payload.
func encodeRound(m sim.RoundMsg) []byte { return roundFrame(m)[4:] }

// roundFrame serializes one RoundMsg as a complete round frame, the
// form the transport retains and writes to every peer.
func roundFrame(m sim.RoundMsg) []byte {
	size := 1 + 8 + 1 + 8 + binary.MaxVarintLen64
	for _, b := range m.Boxes {
		size += 2*binary.MaxVarintLen64 + len(b.Envelopes)*(8+2+2*binary.MaxVarintLen64)
		for _, e := range b.Envelopes {
			size += len(e.Data)
		}
	}
	b := newFrame(size)
	b = append(b, frameRound)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Seq))
	var flags byte
	if m.HasNext {
		flags |= 1
	}
	if m.Flush {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Next))
	b = binary.AppendUvarint(b, uint64(len(m.Boxes)))
	for _, box := range m.Boxes {
		b = binary.AppendUvarint(b, uint64(box.Box))
		b = binary.AppendUvarint(b, uint64(len(box.Envelopes)))
		for _, e := range box.Envelopes {
			b = binary.BigEndian.AppendUint64(b, uint64(e.At))
			b = binary.BigEndian.AppendUint16(b, uint16(e.Kind))
			b = binary.AppendUvarint(b, e.Trace)
			b = binary.AppendUvarint(b, uint64(len(e.Data)))
			b = append(b, e.Data...)
		}
	}
	return sealFrame(b)
}

// byteReader walks a payload with bounds checks; any overrun latches
// an error instead of panicking (the decoder is a fuzz target).
type byteReader struct {
	b   []byte
	err error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = errors.New("wire: truncated frame")
	}
	r.b = nil
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *byteReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// decodeRound parses a round-frame payload. It validates structure
// only; mailbox indices and envelope kinds are checked by the
// coordinator, which knows the domain graph.
func decodeRound(b []byte) (sim.RoundMsg, error) {
	var m sim.RoundMsg
	r := &byteReader{b: b}
	if r.byte() != frameRound {
		return m, errors.New("wire: not a round frame")
	}
	m.Seq = int64(r.u64())
	flags := r.byte()
	m.HasNext = flags&1 != 0
	m.Flush = flags&2 != 0
	m.Next = sim.Time(r.u64())
	nBoxes := r.uvarint()
	if r.err == nil && nBoxes > uint64(len(b)) {
		return m, fmt.Errorf("wire: %d boxes in a %d-byte frame", nBoxes, len(b))
	}
	for i := uint64(0); i < nBoxes && r.err == nil; i++ {
		box := sim.BoxBatch{Box: int(r.uvarint())}
		nEnv := r.uvarint()
		if r.err == nil && nEnv > uint64(len(b)) {
			return m, fmt.Errorf("wire: %d envelopes in a %d-byte frame", nEnv, len(b))
		}
		for j := uint64(0); j < nEnv && r.err == nil; j++ {
			e := sim.WireEnvelope{
				At:    sim.Time(r.u64()),
				Kind:  sim.EnvelopeKind(r.u16()),
				Trace: r.uvarint(),
			}
			dlen := r.uvarint()
			if r.err == nil && dlen > uint64(len(r.b)) {
				r.fail()
				break
			}
			e.Data = append([]byte(nil), r.take(int(dlen))...)
			box.Envelopes = append(box.Envelopes, e)
		}
		m.Boxes = append(m.Boxes, box)
	}
	if r.err != nil {
		return m, r.err
	}
	if len(r.b) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after round frame", len(r.b))
	}
	return m, nil
}

// Frames are built in place: an encoder appends its payload to the
// four length-prefix bytes newFrame reserves, and sealFrame fills the
// prefix in. A sealed frame is never written to again, so the
// transport retains one round frame and writes it, as is, to every
// peer at once.
func newFrame(size int) []byte { return make([]byte, 4, 4+size) }

func sealFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// writeFrame writes one sealed frame, prefix and payload, in one Write.
func writeFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame with exact reads, so
// nothing past the frame is consumed from r.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readBuffered reads one length-prefixed frame from br. A frame that
// fits br's buffer is not copied: its payload aliases the buffer and
// stays valid until the next read from br. (Discarding bytes already
// buffered is guaranteed not to read, so it leaves the buffer intact.)
func readBuffered(br *bufio.Reader) ([]byte, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	if 4+n <= br.Size() {
		b, err := br.Peek(4 + n)
		if err != nil {
			return nil, err
		}
		br.Discard(4 + n)
		return b[4:], nil
	}
	br.Discard(4)
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// frameLen validates a length prefix.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrameSize {
		return 0, fmt.Errorf("wire: frame length %d out of range", n)
	}
	return int(n), nil
}
