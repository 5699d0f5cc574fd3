package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"wgtt/internal/sim"
)

// A journal records every peer round message a process receives, in
// exchange order. Because the partitioned coordinator is deterministic
// given its inbound messages, replaying the journal through the same
// slice schedule reproduces the process's state bit for bit — that is
// the whole checkpoint/restore mechanism: a checkpoint is "replay the
// first K exchanges", not a memory dump.
//
// File format: a header frame ("WGTTJRNL", version, config digest)
// followed by one frame per exchange. Each record frame is the
// exchange sequence number, a uvarint peer count, and the peers' round
// frames (uvarint length + round payload each), in process-index
// order. All frames use the transport's u32 length prefix.

const journalMagic = "WGTTJRNL"

// Record is one exchange as seen from one process: the sequence number
// it sent and every peer's reply, in process-index order.
type Record struct {
	Seq   int64
	Peers []sim.RoundMsg
}

// recordFrame encodes r as a complete journal record frame.
func recordFrame(r Record) []byte {
	b := binary.BigEndian.AppendUint64(newFrame(8+binary.MaxVarintLen64), uint64(r.Seq))
	b = binary.AppendUvarint(b, uint64(len(r.Peers)))
	for _, m := range r.Peers {
		enc := encodeRound(m)
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	return sealFrame(b)
}

// encodeRecord returns r's record-frame payload.
func encodeRecord(r Record) []byte { return recordFrame(r)[4:] }

func decodeRecord(b []byte) (Record, error) {
	var rec Record
	r := &byteReader{b: b}
	rec.Seq = int64(r.u64())
	n := r.uvarint()
	if r.err == nil && n > uint64(len(b)) {
		return rec, fmt.Errorf("wire: journal record claims %d peers", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		l := r.uvarint()
		if r.err == nil && l > uint64(len(r.b)) {
			r.fail()
			break
		}
		enc := r.take(int(l))
		if r.err != nil {
			break
		}
		m, err := decodeRound(enc)
		if err != nil {
			return rec, err
		}
		rec.Peers = append(rec.Peers, m)
	}
	if r.err != nil {
		return rec, r.err
	}
	if len(r.b) != 0 {
		return rec, fmt.Errorf("wire: %d trailing bytes after journal record", len(r.b))
	}
	return rec, nil
}

// Journal appends exchange records to a file.
type Journal struct {
	f *os.File
	w *bufio.Writer
	// appended counts records written through this handle; atomic so
	// introspection endpoints can read the journal depth while the sim
	// goroutine appends.
	appended atomic.Int64
}

// CreateJournal truncates path and writes a fresh journal header.
func CreateJournal(path string, digest [32]byte) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	hdr := append(newFrame(8+2+32), journalMagic...)
	hdr = binary.BigEndian.AppendUint16(hdr, version)
	hdr = append(hdr, digest[:]...)
	if err := writeFrame(j.w, sealFrame(hdr)); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournalAppend reopens an existing journal for appending after a
// restore: the file is truncated to offset (the byte position returned
// by ReadJournal for the replayed prefix) so records from beyond the
// checkpoint do not survive alongside their re-recorded replacements.
func OpenJournalAppend(path string, offset int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, w: bufio.NewWriter(f)}, nil
}

// Append records one exchange. Buffered; call Sync at checkpoints.
func (j *Journal) Append(rec Record) error {
	if err := writeFrame(j.w, recordFrame(rec)); err != nil {
		return err
	}
	j.appended.Add(1)
	return nil
}

// Records returns the number of records appended through this handle —
// the journal depth an introspection endpoint reports. Safe to call
// concurrently with Append.
func (j *Journal) Records() int64 { return j.appended.Load() }

// Offset returns the byte position just past the last appended record
// — the value Checkpoint.Offset wants. It flushes buffered records
// first so the position is stable.
func (j *Journal) Offset() (int64, error) {
	if err := j.w.Flush(); err != nil {
		return 0, err
	}
	return j.f.Seek(0, io.SeekCurrent)
}

// Sync flushes buffered records to stable storage.
func (j *Journal) Sync() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	flushErr := j.w.Flush()
	closeErr := j.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// ReadJournal reads up to max records (max < 0 reads all), verifying
// the header against digest. It returns the records and the byte
// offset just past the last one read — the truncation point for
// OpenJournalAppend when resuming from that record count.
func ReadJournal(path string, digest [32]byte, max int64) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	hdr, err := readFrame(r)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: journal header: %w", err)
	}
	if len(hdr) != 8+2+32 || string(hdr[:8]) != journalMagic {
		return nil, 0, fmt.Errorf("wire: %s is not a wgtt journal", path)
	}
	if v := binary.BigEndian.Uint16(hdr[8:]); v != version {
		return nil, 0, fmt.Errorf("wire: journal version %d, want %d", v, version)
	}
	if !hdrDigestEqual(hdr[10:], digest) {
		return nil, 0, fmt.Errorf("wire: journal %s was recorded under a different configuration", path)
	}
	offset := int64(4 + len(hdr))
	var recs []Record
	for max < 0 || int64(len(recs)) < max {
		b, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wire: journal record %d: %w", len(recs), err)
		}
		rec, err := decodeRecord(b)
		if err != nil {
			return nil, 0, fmt.Errorf("wire: journal record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
		offset += int64(4 + len(b))
	}
	if max >= 0 && int64(len(recs)) < max {
		return nil, 0, fmt.Errorf("wire: journal has %d records, checkpoint needs %d", len(recs), max)
	}
	return recs, offset, nil
}

func hdrDigestEqual(b []byte, digest [32]byte) bool {
	var d [32]byte
	copy(d[:], b)
	return d == digest
}

// JournalBus wraps a live PeerBus, recording every successful exchange.
type JournalBus struct {
	Bus sim.PeerBus
	J   *Journal
}

// Exchange forwards to the live bus and journals the result.
func (b *JournalBus) Exchange(m sim.RoundMsg) ([]sim.RoundMsg, error) {
	out, err := b.Bus.Exchange(m)
	if err != nil {
		return nil, err
	}
	if err := b.J.Append(Record{Seq: m.Seq, Peers: out}); err != nil {
		return nil, fmt.Errorf("wire: journaling exchange %d: %w", m.Seq, err)
	}
	return out, nil
}

// ReplayBus replays a journal prefix instead of talking to peers. The
// coordinator's own sends are checked against the recorded sequence
// numbers but otherwise discarded — determinism guarantees they match
// what was sent when the journal was recorded.
type ReplayBus struct {
	recs []Record
	pos  int
}

// NewReplayBus replays the given records in order.
func NewReplayBus(recs []Record) *ReplayBus {
	return &ReplayBus{recs: recs}
}

// Exchange returns the next recorded exchange's peer messages.
func (r *ReplayBus) Exchange(m sim.RoundMsg) ([]sim.RoundMsg, error) {
	if r.pos >= len(r.recs) {
		return nil, fmt.Errorf("wire: replay exhausted at exchange %d — checkpoint and slice schedule disagree", m.Seq)
	}
	rec := r.recs[r.pos]
	if rec.Seq != m.Seq {
		return nil, fmt.Errorf("wire: replay out of step: journal has exchange %d, coordinator sent %d", rec.Seq, m.Seq)
	}
	r.pos++
	return rec.Peers, nil
}

// Remaining reports how many recorded exchanges are left to replay.
func (r *ReplayBus) Remaining() int { return len(r.recs) - r.pos }

// Checkpoint is the sidecar metadata written next to a journal when a
// run checkpoints: restore = replay Exchanges journal records through
// the identical slice schedule up to At, then continue on a live
// transport with StartSeq = Exchanges.
type Checkpoint struct {
	// Exchanges counts the journal records the checkpoint covers.
	Exchanges int64 `json:"exchanges"`
	// At is the virtual time the checkpointed slice ended at, in
	// sim.Time ticks.
	At int64 `json:"at"`
	// Offset is the journal byte offset just past record Exchanges,
	// where appending resumes after a restore.
	Offset int64 `json:"offset"`
	// Digest is the hex form of the run's config digest.
	Digest string `json:"digest"`
}

// WriteCheckpoint writes the metadata atomically (temp file + rename).
func WriteCheckpoint(path string, c Checkpoint) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpoint reads checkpoint metadata and verifies the digest.
func ReadCheckpoint(path string, digest [32]byte) (Checkpoint, error) {
	var c Checkpoint
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("wire: checkpoint %s: %w", path, err)
	}
	if c.Digest != hex.EncodeToString(digest[:]) {
		return c, fmt.Errorf("wire: checkpoint %s was taken under a different configuration", path)
	}
	return c, nil
}

// DigestHex is the canonical string form used in Checkpoint.Digest.
func DigestHex(digest [32]byte) string { return hex.EncodeToString(digest[:]) }
