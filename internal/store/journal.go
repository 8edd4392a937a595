package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Journal is a general-purpose append-only log of JSON records in the
// example-store WAL's file format, with its own magic: it is opened by
// the same openLog (replay, torn-tail truncation) and written by the
// same walWriter as the store's WAL. It backs subsystems that need a
// durable, replayable event stream without the store's snapshot
// machinery: the lifecycle event log and the repair queue.
//
//	file   = magic frame*
//	magic  = "DEXAJNL1"                       (8 bytes)
//	frame  = EncodeFrame(JSON record)
//
// A Journal opened with an empty path is memory-only: appends succeed and
// are forgotten, which keeps callers free of "is persistence on?" branches.
type Journal struct {
	mu        sync.Mutex
	w         *walWriter // writes to io.Discard when memory-only
	truncated bool
	closed    bool
}

const journalMagic = "DEXAJNL1"

// journalBufferSize sizes a journal's write buffer: every Append writes
// through, so the buffer only ever holds one frame at a time.
const journalBufferSize = 4 << 10

// OpenJournal opens (or creates) the journal at path, invoking replay for
// every intact record before returning. Records after a torn or corrupt
// tail are discarded and the file is truncated back to the last good
// frame, mirroring the store WAL's crash-recovery contract. replay may be
// nil when the caller does not need the history. An empty path yields a
// memory-only journal.
func OpenJournal(path string, replay func(payload []byte) error) (*Journal, error) {
	if path == "" {
		return &Journal{w: &walWriter{bw: bufio.NewWriterSize(io.Discard, journalBufferSize)}}, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating journal dir: %w", err)
	}
	if replay == nil {
		replay = func([]byte) error { return nil }
	}
	w, truncated, err := openLog(path, journalMagic, "journal", journalBufferSize, replay)
	if err != nil {
		return nil, err
	}
	return &Journal{w: w, truncated: truncated}, nil
}

// Append marshals v as JSON and frames it onto the log, writing it
// through to the file before returning. It does not sync; callers decide
// the durability point (see Sync).
func (j *Journal) Append(v any) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("store: journal is closed")
	}
	if err := j.w.append(v); err != nil {
		return err
	}
	return j.w.flush()
}

// Sync forces appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.sync()
}

// Close syncs and closes the underlying file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.w.close(); err != nil {
		return fmt.Errorf("store: closing journal: %w", err)
	}
	return nil
}

// Records returns the number of records replayed plus appended.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.records
}

// TailTruncated reports whether opening discarded a torn or corrupt tail.
func (j *Journal) TailTruncated() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}
