package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Journal is a general-purpose append-only log of JSON records in the
// example-store WAL's file format, with its own magic: frames are
// written by EncodeFrame and read back by replayFrames, with torn-tail
// truncation on open. It backs subsystems that need a durable,
// replayable event stream without the store's snapshot machinery: the
// lifecycle event log and the repair queue.
//
//	file   = magic frame*
//	magic  = "DEXAJNL1"                       (8 bytes)
//	frame  = EncodeFrame(JSON record)
//
// A Journal opened with an empty path is memory-only: appends succeed and
// are forgotten, which keeps callers free of "is persistence on?" branches.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	records   int64
	bytes     int64
	truncated bool
	closed    bool
}

const journalMagic = "DEXAJNL1"

// OpenJournal opens (or creates) the journal at path, invoking replay for
// every intact record before returning. Records after a torn or corrupt
// tail are discarded and the file is truncated back to the last good
// frame, mirroring the store WAL's crash-recovery contract. replay may be
// nil when the caller does not need the history. An empty path yields a
// memory-only journal.
func OpenJournal(path string, replay func(payload []byte) error) (*Journal, error) {
	if path == "" {
		return &Journal{}, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating journal dir: %w", err)
	}
	j := &Journal{}
	goodSize, truncatedAt, err := replayFrames(path, journalMagic, "journal", func(payload []byte) error {
		j.records++
		if replay == nil {
			return nil
		}
		return replay(payload)
	})
	if err != nil {
		return nil, err
	}
	if goodSize == 0 {
		// Missing, or damaged before the first frame: start fresh.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: creating journal: %w", err)
		}
		if _, err := f.WriteString(journalMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: writing journal header: %w", err)
		}
		j.f = f
		j.bytes = int64(len(journalMagic))
		j.records = 0
		return j, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	if truncatedAt >= 0 {
		if err := f.Truncate(goodSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
		j.truncated = true
	}
	if _, err := f.Seek(goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking journal end: %w", err)
	}
	j.f = f
	j.bytes = goodSize
	return j, nil
}

// Append marshals v as JSON and frames it onto the log. It does not sync;
// callers decide the durability point (see Sync).
func (j *Journal) Append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("store: journal is closed")
	}
	j.records++
	if j.f == nil {
		return nil // memory-only
	}
	frame := EncodeFrame(payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending journal record: %w", err)
	}
	j.bytes += int64(len(frame))
	return nil
}

// Sync forces appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal: %w", err)
	}
	return nil
}

// Close syncs and closes the underlying file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	if err != nil {
		return fmt.Errorf("store: closing journal: %w", err)
	}
	return nil
}

// Records returns the number of records replayed plus appended.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// TailTruncated reports whether opening discarded a torn or corrupt tail.
func (j *Journal) TailTruncated() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}
