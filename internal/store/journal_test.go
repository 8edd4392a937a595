package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

type journalRec struct {
	N  int    `json:"n"`
	Op string `json:"op"`
}

func replayAll(t *testing.T, path string) []journalRec {
	t.Helper()
	var recs []journalRec
	j, err := OpenJournal(path, func(payload []byte) error {
		var r journalRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return recs
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(journalRec{N: i, Op: "put"}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := j.Records(); got != 5 {
		t.Fatalf("Records = %d, want 5", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs := replayAll(t, path)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.N != i || r.Op != "put" {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(journalRec{N: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: half a frame of garbage at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var recs []journalRec
	j2, err := OpenJournal(path, func(payload []byte) error {
		var r journalRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if !j2.TailTruncated() {
		t.Fatal("TailTruncated = false, want true")
	}
	// The journal must be appendable again after truncation.
	if err := j2.Append(journalRec{N: 3}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 4 || got[3].N != 3 {
		t.Fatalf("after truncate+append replay = %+v", got)
	}
}

func TestJournalBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("HELLO WORLD, definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, nil); err == nil {
		t.Fatal("OpenJournal accepted a file with bad magic")
	}
}

func TestJournalMemoryOnly(t *testing.T) {
	j, err := OpenJournal("", nil)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Append(journalRec{N: 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := j.Records(); got != 1 {
		t.Fatalf("Records = %d, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Append(journalRec{N: 2}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
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
