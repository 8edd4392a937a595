package lifecycle

import (
	"encoding/json"
	"fmt"
	"sync"

	"dexa/internal/longpoll"
	"dexa/internal/store"
)

// Log is the durable, totally ordered record of lifecycle transitions.
// Appends go to a CRC-framed journal (see store.Journal) before they are
// visible to readers, so a crash never shows a watcher an event that
// would vanish on restart. Readers resume from a cursor — the Seq of the
// last event they saw — and can block until the log grows past it, which
// is what the serving layer's /watch long-poll builds on.
type Log struct {
	mu     sync.Mutex
	events []Event
	j      *store.Journal
	// changed wakes every blocked watcher when an event is appended.
	changed longpoll.Signal
}

// OpenLog opens (or creates) the event log at path, replaying any
// existing events. An empty path yields a memory-only log.
func OpenLog(path string) (*Log, error) {
	l := &Log{}
	j, err := store.OpenJournal(path, func(payload []byte) error {
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return err
		}
		if want := uint64(len(l.events) + 1); ev.Seq != want {
			return fmt.Errorf("lifecycle: event log gap: got seq %d, want %d", ev.Seq, want)
		}
		l.events = append(l.events, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.j = j
	return l, nil
}

// Append stamps the next sequence number onto ev, persists it, and wakes
// every blocked watcher. The stamped event is returned.
func (l *Log) Append(ev Event) (Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev.Seq = uint64(len(l.events) + 1)
	if err := l.j.Append(ev); err != nil {
		return Event{}, err
	}
	l.events = append(l.events, ev)
	l.changed.Fire()
	return ev, nil
}

// Seq returns the sequence number of the newest event (0 when empty).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.events))
}

// Since returns up to limit events with Seq > cursor (limit <= 0 means
// all), plus the cursor to resume from after consuming them.
func (l *Log) Since(cursor uint64, limit int) ([]Event, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor >= uint64(len(l.events)) {
		return nil, uint64(len(l.events))
	}
	tail := l.events[cursor:]
	if limit > 0 && len(tail) > limit {
		tail = tail[:limit]
	}
	out := append([]Event(nil), tail...)
	return out, cursor + uint64(len(out))
}

// Changed returns a channel that is closed once the log holds an event
// with Seq > cursor. When it already does, the returned channel is
// already closed, so a select never misses an update.
func (l *Log) Changed(cursor uint64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.changed.Wait(uint64(len(l.events)) > cursor)
}

// Close flushes and closes the backing journal.
func (l *Log) Close() error { return l.j.Close() }
