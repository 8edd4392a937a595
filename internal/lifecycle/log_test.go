package lifecycle

import (
	"path/filepath"
	"testing"
	"time"

	"dexa/internal/store"
)

func mustAppend(t *testing.T, l *Log, module string, from, to State) Event {
	t.Helper()
	ev, err := l.Append(Event{
		At:     time.Date(2014, 3, 24, 12, 0, 0, 0, time.UTC),
		Module: module, From: from, To: to, Probe: ProbeDrifted,
	})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return ev
}

func TestLogAppendSinceAndCursor(t *testing.T) {
	l, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i, id := range []string{"a", "b", "c"} {
		ev := mustAppend(t, l, id, StateHealthy, StateSuspect)
		if ev.Seq != uint64(i+1) {
			t.Fatalf("append %d stamped seq %d", i, ev.Seq)
		}
	}
	if l.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", l.Seq())
	}
	events, next := l.Since(0, 0)
	if len(events) != 3 || next != 3 {
		t.Fatalf("Since(0) = %d events, cursor %d", len(events), next)
	}
	events, next = l.Since(1, 0)
	if len(events) != 2 || events[0].Module != "b" || next != 3 {
		t.Fatalf("Since(1) = %+v, cursor %d", events, next)
	}
	events, next = l.Since(0, 2)
	if len(events) != 2 || next != 2 {
		t.Fatalf("Since(0, limit 2) = %d events, cursor %d", len(events), next)
	}
	if events, next = l.Since(3, 0); len(events) != 0 || next != 3 {
		t.Fatalf("Since(at head) = %d events, cursor %d", len(events), next)
	}
}

func TestLogChangedBroadcast(t *testing.T) {
	l, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, "a", StateHealthy, StateSuspect)

	// Already past the cursor: the channel comes back closed.
	select {
	case <-l.Changed(0):
	default:
		t.Fatal("Changed(0) not ready although the log is past it")
	}
	// At the head: blocks until the next append.
	ch := l.Changed(1)
	select {
	case <-ch:
		t.Fatal("Changed(head) fired without an append")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	mustAppend(t, l, "a", StateSuspect, StateQuarantined)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("append did not wake the watcher")
	}
}

func TestLogReplayAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	first := mustAppend(t, l, "alpha", StateHealthy, StateSuspect)
	mustAppend(t, l, "alpha", StateSuspect, StateQuarantined)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLog(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Seq() != 2 {
		t.Fatalf("replayed Seq = %d, want 2", l2.Seq())
	}
	events, _ := l2.Since(0, 0)
	if events[0] != first {
		t.Fatalf("replayed event %+v, want %+v", events[0], first)
	}
	// Appends continue the sequence.
	if ev := mustAppend(t, l2, "alpha", StateQuarantined, StateRetired); ev.Seq != 3 {
		t.Fatalf("post-replay append stamped seq %d, want 3", ev.Seq)
	}
}

func TestLogRejectsSequenceGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	j, err := store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Event{Seq: 7, Module: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path); err == nil {
		t.Fatal("OpenLog accepted a log starting at seq 7")
	}
}
