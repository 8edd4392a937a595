package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dexa/internal/dataexample"
)

// The write-ahead log is an append-only file of length-prefixed,
// checksummed JSON records:
//
//	file   = magic frame*
//	magic  = "DEXAWAL1"                       (8 bytes)
//	frame  = length(uint32 BE) crc32(uint32 BE) payload
//	payload = JSON Record, `length` bytes, IEEE CRC-32 `crc32`
//
// Appends go to the end of the file; a crash can only damage the final
// frame. Replay accepts every frame whose length and checksum verify and
// truncates the file back to the last good frame when it meets a torn or
// corrupt tail, so a mid-write crash loses at most the records after the
// last sync and never poisons the store.
//
// The same physical frame format carries records over the replication
// feed (GET /wal): EncodeFrame and FrameReader are the two halves of it,
// shared by the disk log and the wire.

const walMagic = "DEXAWAL1"

// walFrameOverhead is the per-record framing cost (length + CRC).
const walFrameOverhead = 8

// maxWALRecordSize bounds a single record so a corrupt length prefix
// cannot make replay attempt a multi-gigabyte allocation.
const maxWALRecordSize = 64 << 20

// Mutation operations as logged in Record.Op.
const (
	OpPut    = "put"
	OpDelete = "delete"
)

// Record is one logged mutation: the unit of WAL replay and of
// leader-to-follower replication. Version is the per-module change count
// at the time of the mutation; replay falls back to recomputing it when
// absent (records written by older versions of the store).
type Record struct {
	Seq      uint64          `json:"seq"`
	Op       string          `json:"op"`
	Module   string          `json:"module"`
	Hash     string          `json:"hash,omitempty"`
	Version  uint64          `json:"version,omitempty"`
	Examples dataexample.Set `json:"examples,omitempty"`
}

// EncodeFrame wraps one payload in the WAL's physical frame format:
// length, CRC-32, payload. The disk log and the replication feed both
// emit frames this way, so a follower verifies end-to-end integrity with
// the same checksum the crash-recovery path uses.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, walFrameOverhead+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// ErrTornFrame reports a frame whose length, payload or checksum did not
// verify: the stream is damaged (or was cut) at that point. For the disk
// log this marks the truncation offset; for the replication feed it
// aborts the batch so the follower re-requests from its last good
// sequence.
var ErrTornFrame = errors.New("store: torn or corrupt frame")

// FrameReader decodes a stream of EncodeFrame frames: the one decoder
// behind WAL replay, journal replay and the replication feed. Next
// returns each verified payload in order, io.EOF at a clean end, and
// ErrTornFrame when the stream is damaged mid-frame; either error is
// sticky, so nothing past a torn frame is ever returned. Consumed
// reports how many bytes of intact frames were read — the truncation
// point when the tail is torn.
type FrameReader struct {
	r        io.Reader
	header   [walFrameOverhead]byte
	consumed int64
	err      error
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next returns the next verified payload.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	payload, err := fr.next()
	fr.err = err
	return payload, err
}

// next decodes one frame. The length prefix is checked before the
// payload is allocated, so a corrupt prefix costs no allocation.
func (fr *FrameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end
		}
		return nil, ErrTornFrame // torn frame header
	}
	length := binary.BigEndian.Uint32(fr.header[0:4])
	sum := binary.BigEndian.Uint32(fr.header[4:8])
	if length > maxWALRecordSize {
		return nil, ErrTornFrame // corrupt length prefix
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, ErrTornFrame // torn payload
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrTornFrame // bit rot / partial overwrite
	}
	fr.consumed += walFrameOverhead + int64(length)
	return payload, nil
}

// Consumed returns the byte count of fully verified frames read so far.
func (fr *FrameReader) Consumed() int64 { return fr.consumed }

// walBufferSize sizes the writer's in-process buffer. A group-commit
// batch accumulates frames here and reaches the kernel in one write,
// so a 64-record batch costs one syscall instead of 64.
const walBufferSize = 256 << 10

// walWriter appends frames to an open framed log — the store's WAL or
// a Journal — through a buffered writer. Appends are not durable until
// flush (one write syscall per batch) and sync (one fsync per batch);
// the caller decides both points.
type walWriter struct {
	f       *os.File
	bw      *bufio.Writer
	records int64
	bytes   int64
}

// openLog opens the framed log at path with crash recovery: it replays
// every intact frame through fn, cuts a torn or corrupt tail back to the
// last good frame, and returns a writer positioned at the end — or, when
// the file is missing or was cut before its magic landed, a fresh file
// holding just the magic. truncated reports that a tail was cut. kind
// names the file in errors; bufSize sizes the writer's buffer.
func openLog(path, magic, kind string, bufSize int, fn func(payload []byte) error) (w *walWriter, truncated bool, err error) {
	var records int64
	goodSize, truncatedAt, err := replayFrames(path, magic, kind, func(payload []byte) error {
		if err := fn(payload); err != nil {
			return err
		}
		records++
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	if goodSize == 0 {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, false, fmt.Errorf("store: creating %s: %w", kind, err)
		}
		if _, err := f.WriteString(magic); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("store: writing %s header: %w", kind, err)
		}
		return &walWriter{f: f, bw: bufio.NewWriterSize(f, bufSize), bytes: int64(len(magic))}, false, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("store: opening %s: %w", kind, err)
	}
	if truncatedAt >= 0 {
		if err := f.Truncate(goodSize); err != nil {
			f.Close()
			return nil, false, fmt.Errorf("store: truncating torn %s tail: %w", kind, err)
		}
		truncated = true
	}
	if _, err := f.Seek(goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, false, fmt.Errorf("store: seeking %s end: %w", kind, err)
	}
	return &walWriter{f: f, bw: bufio.NewWriterSize(f, bufSize), records: records, bytes: goodSize}, truncated, nil
}

// append encodes v as JSON and buffers it as one frame. It neither
// writes through nor syncs. The buffered writer's error is sticky: after
// a failed write every later append fails too.
func (w *walWriter) append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding log record: %w", err)
	}
	frame := EncodeFrame(payload)
	if _, err := w.bw.Write(frame); err != nil {
		return fmt.Errorf("store: appending log record: %w", err)
	}
	w.records++
	w.bytes += int64(len(frame))
	return nil
}

// flush writes buffered frames through to the file.
func (w *walWriter) flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing wal: %w", err)
	}
	return nil
}

// sync forces the log to stable storage (flushing the buffer first).
// A closed writer has nothing left to sync.
func (w *walWriter) sync() error {
	if err := w.flush(); err != nil || w.f == nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing wal: %w", err)
	}
	return nil
}

// reset truncates the log back to just the magic header (after a
// snapshot has absorbed its records). Buffered frames are discarded:
// the snapshot already captured their effects.
func (w *walWriter) reset() error {
	w.bw.Reset(w.f)
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("store: rewinding wal: %w", err)
	}
	w.records = 0
	w.bytes = int64(len(walMagic))
	return w.sync()
}

// close syncs the log and releases the file.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// replayFrames reads a framed file — magic, then frames — handing each
// intact payload to fn, and reports the size of the good prefix plus
// where (if anywhere) a torn or corrupt tail began (truncatedAt < 0
// means a clean end). A missing file replays to nothing; one shorter
// than its magic (a crash during creation) reports goodSize 0 so the
// caller recreates it; a wrong magic is a hard error. fn returning
// ErrTornFrame marks its payload as the torn tail; any other error
// aborts the replay. kind names the file in errors.
func replayFrames(path, magic, kind string, fn func(payload []byte) error) (goodSize int64, truncatedAt int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, -1, nil
	}
	if err != nil {
		return 0, -1, fmt.Errorf("store: opening %s: %w", kind, err)
	}
	defer f.Close()

	head := make([]byte, len(magic))
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, 0, nil // a crash during creation: recreate from scratch
	}
	if string(head) != magic {
		return 0, -1, fmt.Errorf("store: %s is not a %s (bad magic)", path, kind)
	}
	fr := NewFrameReader(f)
	for n := 0; ; n++ {
		offset := int64(len(magic)) + fr.Consumed()
		payload, err := fr.Next()
		if err == io.EOF {
			return offset, -1, nil // clean end
		}
		if err == nil {
			err = fn(payload)
		}
		if errors.Is(err, ErrTornFrame) {
			return offset, offset, nil // torn or corrupt tail
		}
		if err != nil {
			return offset, -1, fmt.Errorf("store: replaying %s record %d: %w", kind, n, err)
		}
	}
}
