package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dexa/internal/dataexample"
)

// The snapshot is the compacted form of the store: one JSON document with
// every live record (sorted by module ID), the global sequence number the
// snapshot captures, and an IEEE CRC-32 over the canonical encoding of
// the records array. Snapshots are written to a temp file in the same
// directory, fsynced, then renamed over the previous snapshot, so a crash
// mid-write leaves the old snapshot intact. After a successful snapshot
// the WAL is truncated: recovery is "load snapshot, replay WAL", and the
// WAL only ever holds mutations newer than the snapshot (or, after a
// crash between the rename and the truncate, duplicates the replay
// ignores by sequence number).

const snapshotVersion = 1

// snapshotRecord is one persisted module annotation.
type snapshotRecord struct {
	Module   string          `json:"module"`
	Hash     string          `json:"hash"`
	Version  uint64          `json:"version"`
	Seq      uint64          `json:"seq"`
	Examples dataexample.Set `json:"examples"`
}

// snapshotDoc is the on-disk snapshot document.
type snapshotDoc struct {
	Version int              `json:"version"`
	Seq     uint64           `json:"seq"`
	Records []snapshotRecord `json:"records"`
	CRC     string           `json:"crc"`
}

// recordsCRC checksums the canonical encoding of the records array.
func recordsCRC(recs []snapshotRecord) (string, error) {
	if recs == nil {
		recs = []snapshotRecord{}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return "", fmt.Errorf("store: encoding snapshot records: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)), nil
}

// writeSnapshot atomically persists the document to path.
func writeSnapshot(path string, doc snapshotDoc) error {
	var err error
	if doc.CRC, err = recordsCRC(doc.Records); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	data = append(data, '\n')

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	// Persist the rename itself: fsync the directory entry.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadSnapshot streams the snapshot document at path, invoking onRecord
// for every record as it is decoded — the caller indexes (and interns)
// each record immediately, so hydration makes one pass over the file
// instead of materialising the whole document and walking it again. The
// CRC is accumulated incrementally from each record's canonical compact
// re-encoding (byte-identical to recordsCRC over the full array, since
// Example marshalling is deterministic) and verified against the
// document's crc field after the final record; field order in the
// document is immaterial because verification waits for EOF.
//
// A missing file yields seq 0 and no records; a damaged one, a second
// records array included, is a hard error — the snapshot is the
// compacted history and silently dropping it would silently lose data.
// Records of a damaged document may reach onRecord before the error;
// callers drop them with it (Open fails, readSnapshot returns nothing).
func loadSnapshot(path string, onRecord func(*snapshotRecord)) (seq uint64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading snapshot: %w", err)
	}
	defer f.Close()

	dec := json.NewDecoder(bufio.NewReaderSize(f, 1<<20))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0, fmt.Errorf("store: decoding snapshot %s: expected object, got %v (%v)", path, tok, err)
	}
	var (
		version    = -1
		wantCRC    string
		haveCRC    = false
		crc        = crc32.NewIEEE()
		sawRecords = false
	)
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("store: decoding snapshot %s: %w", path, err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "version":
			if err := dec.Decode(&version); err != nil {
				return 0, fmt.Errorf("store: decoding snapshot %s version: %w", path, err)
			}
		case "seq":
			if err := dec.Decode(&seq); err != nil {
				return 0, fmt.Errorf("store: decoding snapshot %s seq: %w", path, err)
			}
		case "crc":
			if err := dec.Decode(&wantCRC); err != nil {
				return 0, fmt.Errorf("store: decoding snapshot %s crc: %w", path, err)
			}
			haveCRC = true
		case "records":
			if sawRecords {
				return 0, fmt.Errorf("store: decoding snapshot %s: duplicate records array", path)
			}
			tok, err := dec.Token()
			if err != nil {
				return 0, fmt.Errorf("store: decoding snapshot %s records: %w", path, err)
			}
			if tok == nil {
				// A snapshot of an empty store encodes records as null; its
				// CRC covers the canonical empty array.
				crc.Write([]byte("[]"))
				sawRecords = true
				break
			}
			if tok != json.Delim('[') {
				return 0, fmt.Errorf("store: decoding snapshot %s: records is %v, want array", path, tok)
			}
			crc.Write([]byte{'['})
			first := true
			for dec.More() {
				var rec snapshotRecord
				if err := dec.Decode(&rec); err != nil {
					return 0, fmt.Errorf("store: decoding snapshot %s record: %w", path, err)
				}
				if !first {
					crc.Write([]byte{','})
				}
				first = false
				canon, err := json.Marshal(rec)
				if err != nil {
					return 0, fmt.Errorf("store: re-encoding snapshot record %s: %w", rec.Module, err)
				}
				crc.Write(canon)
				onRecord(&rec)
			}
			if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
				return 0, fmt.Errorf("store: decoding snapshot %s: unterminated records array (%v)", path, err)
			}
			crc.Write([]byte{']'})
			sawRecords = true
		default:
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return 0, fmt.Errorf("store: decoding snapshot %s field %q: %w", path, key, err)
			}
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return 0, fmt.Errorf("store: decoding snapshot %s: unterminated document (%v)", path, err)
	}
	if version != snapshotVersion {
		return 0, fmt.Errorf("store: snapshot %s has unsupported version %d", path, version)
	}
	if !sawRecords {
		crc.Write([]byte("[]"))
	}
	got := fmt.Sprintf("%08x", crc.Sum32())
	if !haveCRC || got != wantCRC {
		return 0, fmt.Errorf("store: snapshot %s checksum mismatch (have %s, want %s)", path, got, wantCRC)
	}
	return seq, nil
}

// readSnapshot loads and verifies a snapshot into one document — the
// non-streaming convenience over loadSnapshot, kept for callers that
// want the whole array (tests, tooling).
func readSnapshot(path string) (snapshotDoc, error) {
	doc := snapshotDoc{Version: snapshotVersion}
	seq, err := loadSnapshot(path, func(rec *snapshotRecord) {
		doc.Records = append(doc.Records, *rec)
	})
	if err != nil {
		return snapshotDoc{}, err
	}
	doc.Seq = seq
	return doc, nil
}
