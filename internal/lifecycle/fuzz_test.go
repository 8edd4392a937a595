package lifecycle

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dexa/internal/store"
)

// writeRecords writes each newline-separated JSON value of data as one
// journal record at path. It reports false, writing nothing, when some
// line is not JSON: the journal only ever holds marshalled records.
func writeRecords(t *testing.T, path string, data []byte) bool {
	lines := bytes.Split(data, []byte("\n"))
	for _, line := range lines {
		if !json.Valid(line) {
			return false
		}
	}
	j, err := store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if err := j.Append(json.RawMessage(line)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return true
}

// journalLines reads the journal at path back as newline-separated
// records, the input form of the replay fuzz targets.
func journalLines(f *testing.F, path string) []byte {
	var recs [][]byte
	j, err := store.OpenJournal(path, func(payload []byte) error {
		recs = append(recs, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	return bytes.Join(recs, []byte("\n"))
}

// checkRejected holds a journal that failed to open to its contract: an
// error, no value, and the file as it was, since replay rejects it
// before any torn-tail truncation.
func checkRejected(t *testing.T, path string, before []byte, opened bool, err error) {
	if opened {
		t.Fatalf("open failed with %v but returned a value", err)
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a rejected journal was rewritten (%d bytes, now %d): %v", len(before), len(after), err)
	}
}

func mustJSON(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzQueueReplay drives the repair queue's journal replay (OpenQueue's
// apply: proposal-ID parsing, duplicate and unknown-ID checks) with
// arbitrary JSON records. It must never panic; a rejected journal is an
// error and stays on disk as it was; an accepted queue takes one more
// Enqueue under an ID it does not hold and reopens to the same List plus
// that proposal.
func FuzzQueueReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "queue.jnl")
	q, err := OpenQueue(path)
	if err != nil {
		f.Fatal(err)
	}
	p1, _ := q.Enqueue(sampleProposal("alpha", ""))
	q.Enqueue(sampleProposal("alpha", "wf-1"))
	q.Resolve(p1.ID, true, time.Date(2014, 3, 25, 10, 0, 0, 0, time.UTC))
	q.Close()
	seed := journalLines(f, path)
	f.Add(seed)
	f.Add(append(bytes.Clone(seed), []byte("\n"+`{"op":"resolve","id":"rq-000009","state":"approved"}`)...))
	f.Add([]byte(`{"op":"enqueue","proposal":{"id":"rq-000007","module":"m","state":"pending"}}` + "\n" +
		`{"op":"enqueue","proposal":{"id":"rq-7","module":"m","state":"pending"}}`))
	f.Add([]byte(`{"op":"enqueue","proposal":{"id":"rq-000001"}}` + "\n" + `{"op":"enqueue","proposal":{"id":"rq-000001"}}`))
	f.Add([]byte(`{"op":"enqueue"}`))
	f.Add([]byte(`{"op":"compact"}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "queue.jnl")
		if !writeRecords(t, path, data) {
			return
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueue(path)
		if err != nil {
			checkRejected(t, path, before, q != nil, err)
			return
		}
		list := q.List("")
		p, err := q.Enqueue(sampleProposal("fuzz", ""))
		if err != nil {
			t.Fatal(err)
		}
		for _, held := range list {
			if held.ID == p.ID {
				t.Fatalf("Enqueue stamped %q, an ID the replayed queue already holds", p.ID)
			}
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		q, err = OpenQueue(path)
		if err != nil {
			t.Fatalf("the queue does not reopen after Enqueue of %s: %v", p.ID, err)
		}
		defer q.Close()
		if got, want := mustJSON(t, q.List("")), mustJSON(t, append(list, p)); got != want {
			t.Fatalf("reopened queue lists\n%s\nwant\n%s", got, want)
		}
	})
}

// FuzzEventLogReplay drives the lifecycle event log's journal replay
// (OpenLog's decode and contiguous-seq check) with arbitrary JSON
// records. It must never panic; a rejected journal is an error and stays
// on disk as it was; an accepted log holds one event per record, seqs
// 1..n, takes one more Append at n+1 and reopens to the same events plus
// that one.
func FuzzEventLogReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "events.jnl")
	l, err := OpenLog(path)
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2014, 3, 24, 12, 0, 0, 0, time.UTC)
	l.Append(Event{At: at, Module: "a", From: StateHealthy, To: StateSuspect, Probe: ProbeDrifted})
	l.Append(Event{At: at, Module: "a", From: StateSuspect, To: StateQuarantined, Probe: ProbeDead, Reason: "no answer"})
	l.Close()
	seed := journalLines(f, path)
	f.Add(seed)
	f.Add(append(bytes.Clone(seed), []byte("\n"+`{"seq":4,"module":"a"}`)...))
	f.Add([]byte(`{"seq":1,"from":"retired"}`))
	f.Add([]byte(`{"seq":1,"probe":"bogus"}`))
	f.Add([]byte(`{"seq":0}`))
	f.Add([]byte(`"seq"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "events.jnl")
		if !writeRecords(t, path, data) {
			return
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path)
		if err != nil {
			checkRejected(t, path, before, l != nil, err)
			return
		}
		events, next := l.Since(0, 0)
		if n := uint64(bytes.Count(data, []byte("\n")) + 1); l.Seq() != n || next != n {
			t.Fatalf("replayed %d records to Seq %d, cursor %d", n, l.Seq(), next)
		}
		for i, ev := range events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d", i, ev.Seq)
			}
		}
		ev, err := l.Append(Event{At: at, Module: "fuzz", From: StateHealthy, To: StateSuspect, Probe: ProbeDrifted})
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != next+1 {
			t.Fatalf("Append stamped seq %d after %d events", ev.Seq, next)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = OpenLog(path)
		if err != nil {
			t.Fatalf("the log does not reopen after Append of seq %d: %v", ev.Seq, err)
		}
		defer l.Close()
		got, _ := l.Since(0, 0)
		if g, w := mustJSON(t, got), mustJSON(t, append(events, ev)); g != w {
			t.Fatalf("reopened log holds\n%s\nwant\n%s", g, w)
		}
	})
}
