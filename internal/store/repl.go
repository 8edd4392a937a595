package store

import (
	"fmt"
	"sort"
	"sync"
)

// Replication: the store exposes its mutation stream so a follower can
// tail a leader and mirror its state record for record.
//
// The leader side keeps a bounded in-memory window of recent Records
// (the WAL file itself is truncated by compaction, so it cannot serve as
// the replication source). A follower resumes from the sequence number
// of the last record it applied:
//
//   - cursor inside the window  → TailSince returns the contiguous delta
//   - cursor ahead of the head  → TailSince returns nothing; Changed
//     lets the caller block until the log grows (the /wal long-poll)
//   - cursor before the window  → TailSince returns the full live state
//     with reset=true; the follower replaces its state wholesale
//
// The follower side applies deltas through ApplyReplicatedBatch — the same
// code path WAL replay uses — with the lifecycle log's contiguity
// contract: records must arrive in exact sequence order, a gap is an
// error (never silently absorbed), and records at or below the local
// sequence are duplicates that are counted but not re-applied. Applied
// records land in the follower's own WAL, so a follower restart resumes
// from its recovered sequence with no re-transfer.

// defaultReplWindow bounds the in-memory replication buffer. A follower
// lagging by more than this many records resynchronises via reset.
const defaultReplWindow = 4096

// repl is the leader-side replication window.
type repl struct {
	mu   sync.Mutex
	recs []Record // contiguous: recs[i].Seq == low + uint64(i) + 1
	low  uint64   // highest sequence NOT individually available
	head uint64   // sequence of the newest record (== store seq)
	// resets counts wholesale replacements (resetTo): a reset may move
	// head back to a sequence the store held before, with other content.
	resets uint64
	// notify is closed and replaced on every push — a broadcast to every
	// blocked tailer, the lifecycle log's idiom.
	notify chan struct{}
	window int
}

func (r *repl) init(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.low, r.head = seq, seq
	r.recs = nil
	r.notify = make(chan struct{})
	r.window = defaultReplWindow
}

// push appends one record to the window, evicting the oldest quarter
// when full, and wakes every blocked tailer. Callers hold the store's
// logMu, so pushes arrive in sequence order.
func (r *repl) push(rec Record) {
	r.pushBatch([]Record{rec})
}

// pushBatch appends a whole commit batch to the window and wakes every
// blocked tailer exactly once — N records from one group commit cost
// one broadcast, not N. Callers hold the store's logMu, so batches
// arrive in sequence order.
func (r *repl) pushBatch(recs []Record) {
	if len(recs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		if len(r.recs) >= r.window {
			drop := r.window / 4
			if drop < 1 {
				drop = 1
			}
			r.recs = append(r.recs[:0], r.recs[drop:]...)
			r.low += uint64(drop)
		}
		r.recs = append(r.recs, rec)
	}
	r.head = recs[len(recs)-1].Seq
	close(r.notify)
	r.notify = make(chan struct{})
}

// resetTo empties the window after a wholesale state replacement.
func (r *repl) resetTo(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = nil
	r.low, r.head = seq, seq
	r.resets++
	close(r.notify)
	r.notify = make(chan struct{})
}

// Seq returns the sequence number of the newest mutation (0 when the
// store has never been written). It is the follower's replication cursor
// and the leader's feed head.
func (s *Store) Seq() uint64 {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.head
}

// ContentVersion identifies the store's content: the number of wholesale
// resets (ResetReplicated) and the newest mutation's sequence. Every
// committed Put, PutBatch and Delete and every applied replicated record
// moves seq; a reset can move seq back to a number it held before, with
// other content, so it moves resets too. Both move only after the state
// they describe is readable, so a cache keyed on the version read before
// its build never serves content older than its key.
func (s *Store) ContentVersion() (resets, seq uint64) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.resets, s.repl.head
}

// ReplicationChanged returns a channel that is closed once the store
// holds a mutation with sequence > cursor. When it already does, the
// returned channel is already closed, so a select never misses an
// update.
func (s *Store) ReplicationChanged(cursor uint64) <-chan struct{} {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if s.repl.head > cursor {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return s.repl.notify
}

// TailSince returns the mutation records with sequence > cursor, up to
// limit (<= 0 means all), plus the cursor to resume from after applying
// them. When the cursor has fallen out of the replication window the
// delta is gone: TailSince instead returns the full live state as put
// records with reset=true, and the follower must replace its state via
// ResetReplicated rather than apply the batch incrementally.
func (s *Store) TailSince(cursor uint64, limit int) (recs []Record, next uint64, reset bool) {
	// The consistent cut needs the writer lock: the window and the shard
	// maps must agree when a reset snapshot is taken.
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.repl.mu.Lock()
	low, head := s.repl.low, s.repl.head
	if cursor >= low && cursor <= head {
		if cursor == head {
			s.repl.mu.Unlock()
			return nil, head, false
		}
		tail := s.repl.recs[cursor-low:]
		if limit > 0 && len(tail) > limit {
			tail = tail[:limit]
		}
		recs = append([]Record(nil), tail...)
		s.repl.mu.Unlock()
		return recs, cursor + uint64(len(recs)), false
	}
	s.repl.mu.Unlock()
	// Cursor predates the window (the delta is gone) or lies beyond the
	// head (the follower outlived a leader whose WAL tail was torn — a
	// divergent history): either way the incremental contract is broken,
	// so emit the live state, sorted by the sequence each record last
	// changed at, as a reset stream.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, r := range sh.recs {
			recs = append(recs, Record{Seq: r.seq, Op: OpPut, Module: id, Hash: r.hash, Version: r.version, Examples: r.set})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, s.seq, true
}

// ApplyReplicatedBatch applies a contiguous batch of leader records to
// a follower store batch-natively: every record is validated and
// appended to the follower's own WAL through the buffered writer, the
// batch reaches disk in one write (and one fsync under SyncOnPut), and
// the index updates publish with a single replication wake — the
// follower's half of group commit. Sequence numbers, content hashes
// and versions are preserved from the leader. Records at or below the
// local sequence are duplicates (a retried delivery) and are skipped
// without re-applying; a record that skips ahead of the expected
// sequence is a gap that fails the batch at that point — the validated
// prefix still commits, mirroring the record-at-a-time behaviour.
func (s *Store) ApplyReplicatedBatch(recs []Record) (applied, skipped int, err error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return 0, 0, fmt.Errorf("store: closed")
	}
	toApply := recs[:0:0]
	next := s.seq
	var verr error
	for _, rec := range recs {
		if rec.Seq <= next {
			skipped++
			continue
		}
		if rec.Seq != next+1 {
			verr = fmt.Errorf("store: replication gap: got seq %d, want %d", rec.Seq, next+1)
			break
		}
		if rec.Op != OpPut && rec.Op != OpDelete {
			verr = fmt.Errorf("store: replication record %d has unknown op %q", rec.Seq, rec.Op)
			break
		}
		if s.wal != nil {
			if werr := s.wal.append(rec); werr != nil {
				verr = werr
				break
			}
			s.met.walAppends.Inc()
		}
		toApply = append(toApply, rec)
		next = rec.Seq
	}
	if len(toApply) == 0 {
		return 0, skipped, verr
	}
	if s.wal != nil {
		if ferr := s.wal.flush(); ferr != nil {
			return 0, skipped, ferr
		}
		s.met.walBytes.Set(float64(s.wal.bytes))
		if s.opts.SyncOnPut {
			if serr := s.wal.sync(); serr != nil {
				return 0, skipped, serr
			}
			s.met.walSyncs.Inc()
		}
	}
	for _, rec := range toApply {
		s.apply(rec)
		s.appends++
		if rec.Op == OpPut {
			s.puts.Add(1)
		} else {
			s.deletes.Add(1)
		}
	}
	if s.wal != nil {
		if s.opts.SyncOnPut {
			s.lastSynced = s.seq
			s.unsynced = 0
		} else {
			s.unsynced += len(toApply)
		}
	}
	s.repl.pushBatch(toApply)
	applied = len(toApply)
	if verr != nil {
		return applied, skipped, verr
	}
	if s.opts.CompactEvery > 0 && s.appends >= s.opts.CompactEvery {
		if cerr := s.snapshotLocked(); cerr != nil {
			return applied, skipped, cerr
		}
	}
	return applied, skipped, nil
}

// ResetReplicated replaces the follower's entire state with the given
// live records (a leader's reset stream) and adopts seq as the local
// sequence. The new state is compacted straight into the snapshot file
// when the store is on disk, so the WAL never carries a mix of pre- and
// post-reset records.
func (s *Store) ResetReplicated(recs []Record, seq uint64) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.recs = make(map[string]*record)
		sh.mu.Unlock()
	}
	for _, rec := range recs {
		if rec.Op != OpPut {
			return fmt.Errorf("store: reset stream carries op %q for %s (want %s)", rec.Op, rec.Module, OpPut)
		}
		ver := rec.Version
		if ver == 0 {
			ver = 1
		}
		sh := s.shard(rec.Module)
		sh.mu.Lock()
		sh.recs[rec.Module] = &record{
			set:     rec.Examples,
			keyed:   rec.Examples.KeyedInterned(s.symtab),
			hash:    rec.Hash,
			version: ver,
			seq:     rec.Seq,
		}
		sh.mu.Unlock()
		s.puts.Add(1)
	}
	s.seq = seq
	if s.dir != "" {
		if err := s.snapshotLocked(); err != nil {
			return err
		}
	}
	s.repl.resetTo(seq)
	return nil
}
