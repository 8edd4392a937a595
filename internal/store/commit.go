package store

import (
	"fmt"

	"dexa/internal/dataexample"
)

// Group commit: the batch-native write path.
//
// Concurrent Put/Delete callers do the expensive, parallelisable work
// on their own goroutine — content hashing, canonicalisation, symbol
// interning — then enqueue a pre-encoded operation and park on a
// commit ticket. A single committer goroutine drains the queue,
// appends the whole batch to the WAL through the buffered writer,
// issues ONE fsync for the batch (when SyncOnPut asks for durability:
// callers only unpark after their batch's sync), publishes the index
// updates, and wakes replication tailers once per batch instead of
// once per record. Eight writers each paying a ~160µs fsync become
// eight writers sharing one, which is where the write path's ≥2x
// comes from.
//
// The WAL format is unchanged: a batch is just consecutive frames, so
// recovery, golden fixtures and the replication wire are oblivious to
// batching. Torn-tail truncation still lands on a frame boundary —
// a crash mid-batch loses a suffix of the batch, never half a record.

// maxCommitRequests bounds how many parked requests one committer pass
// absorbs (and sizes the queue). Large enough to soak up a burst of
// sweep workers, small enough that a batch's latency stays bounded.
const maxCommitRequests = 256

// PutItem is one module's example set in a PutBatch call.
type PutItem struct {
	ID       string
	Examples dataexample.Set
}

// PutResult reports the outcome of one batched mutation: the content
// hash (for puts), whether the store changed, and the per-item error.
type PutResult struct {
	Hash    string
	Changed bool
	Err     error
}

// commitOp is one fully-prepared mutation waiting to commit: hash and
// keyed set were computed on the caller's goroutine, so the committer
// only appends, syncs and publishes.
type commitOp struct {
	op    string // OpPut or OpDelete
	id    string
	hash  string
	set   dataexample.Set
	keyed *dataexample.KeyedSet
	res   *PutResult
}

// commitReq is one caller's batch of operations plus its ticket: done
// closes once the batch is durable (per SyncOnPut) and visible.
type commitReq struct {
	ops  []commitOp
	err  error // request-level error (store closed)
	done chan struct{}
}

// startCommitter launches the committer goroutine. Called from Open.
func (s *Store) startCommitter() {
	s.commitCh = make(chan *commitReq, maxCommitRequests)
	s.commitDone = make(chan struct{})
	go s.committer()
}

// submit hands a prepared batch to the committer and parks until it
// commits.
func (s *Store) submit(ops []commitOp) error {
	req := &commitReq{ops: ops, done: make(chan struct{})}
	s.commitMu.RLock()
	if s.commitClosed {
		s.commitMu.RUnlock()
		return fmt.Errorf("store: closed")
	}
	s.commitCh <- req
	s.commitMu.RUnlock()
	<-req.done
	return req.err
}

// committer is the single goroutine that owns the write path: it
// blocks for the first request, opportunistically drains everything
// else already queued, and commits them as one batch.
func (s *Store) committer() {
	defer close(s.commitDone)
	for req := range s.commitCh {
		batch := append(make([]*commitReq, 0, 16), req)
	gather:
		for len(batch) < maxCommitRequests {
			select {
			case r, ok := <-s.commitCh:
				if !ok {
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		s.logMu.Lock()
		s.commitLocked(batch)
		s.logMu.Unlock()
	}
}

// appendLocked buffers one record's frame in the WAL (a no-op for a
// memory-only store): the one encode-and-frame behind both the leader's
// commit and the follower's replicated apply.
func (s *Store) appendLocked(rec Record) error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.append(rec); err != nil {
		return err
	}
	s.met.walAppends.Inc()
	return nil
}

// commitLocked commits a batch of requests under logMu: it resolves
// every op into a record — re-checking no-ops against the live index
// plus this batch's own writes, chaining versions, assigning contiguous
// sequences — and appends it through the buffered WAL writer, then
// hands the batch to publishLocked. Tickets close on return, after the
// batch's durability point — a SyncOnPut caller never unparks before
// its record is on stable storage.
func (s *Store) commitLocked(batch []*commitReq) {
	defer func() {
		for _, req := range batch {
			close(req.done)
		}
	}()
	if s.closed {
		err := fmt.Errorf("store: closed")
		for _, req := range batch {
			req.err = err
		}
		return
	}

	var (
		recs  []Record
		keyed []*dataexample.KeyedSet
		// overlay maps a module written earlier in this batch to its
		// latest record in recs, so same-batch writes to one module chain
		// versions and dedupe exactly as sequential Puts would.
		overlay = make(map[string]int)
		// abortErr fails every op after a failed append: the buffered
		// writer's error is sticky, so nothing may stack behind a torn
		// frame.
		abortErr error
	)
	lookup := func(id string) (hash string, version uint64, ok bool) {
		if i, seen := overlay[id]; seen {
			return recs[i].Hash, recs[i].Version, recs[i].Op == OpPut
		}
		sh := s.shard(id)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		if r, ok := sh.recs[id]; ok {
			return r.hash, r.version, true
		}
		return "", 0, false
	}

	for _, req := range batch {
		for i := range req.ops {
			op := &req.ops[i]
			if abortErr != nil {
				op.res.Err = abortErr
				continue
			}
			rec := Record{Seq: s.seq + uint64(len(recs)) + 1, Op: op.op, Module: op.id}
			switch op.op {
			case OpPut:
				hash, ver, ok := lookup(op.id)
				if ok && hash == op.hash {
					// Content already stored (by the index or by an
					// earlier op in this very batch): metadata-free no-op.
					op.res.Hash = op.hash
					s.putNoops.Add(1)
					continue
				}
				rec.Hash, rec.Version, rec.Examples = op.hash, ver+1, op.set
			case OpDelete:
				if _, _, ok := lookup(op.id); !ok {
					continue // deleting an absent module is a no-op
				}
			default:
				op.res.Err = fmt.Errorf("store: unknown op %q", op.op)
				continue
			}
			if err := s.appendLocked(rec); err != nil {
				op.res.Err = err
				abortErr = fmt.Errorf("store: batch aborted: %w", err)
				continue
			}
			overlay[op.id] = len(recs)
			recs = append(recs, rec)
			keyed = append(keyed, op.keyed)
			op.res.Hash = op.hash
			op.res.Changed = true
		}
	}
	if len(recs) == 0 {
		return
	}

	published, err := s.publishLocked(recs, keyed)
	if published {
		s.met.commitBatchSize.Observe(float64(len(recs)))
		if len(batch) > 1 {
			s.met.groupCommitWaits.Add(uint64(len(batch) - 1))
		}
	}
	if err == nil {
		return
	}
	// Unpublished, the written ops fail and change nothing. Published
	// with a compaction failure, the mutations themselves committed: the
	// error rides every op that took part, alongside its hash and
	// changed=true.
	for _, req := range batch {
		for i := range req.ops {
			res := req.ops[i].res
			if !published && res.Changed {
				res.Err, res.Changed = err, false
			} else if published && res.Err == nil {
				res.Err = err
			}
		}
	}
}

// publishLocked is the one durability-and-publish step, shared by the
// leader's commitLocked and the follower's ApplyReplicatedBatch. recs is
// a run of records with contiguous sequences already buffered in the
// WAL; keyed[i] is recs[i]'s pre-interned keyed set, and a nil keyed
// leaves the interning to install (the follower's case). The batch
// reaches the file in one write and, under SyncOnPut, one fsync. Only
// then does it publish: every record installed, seq, the counters and
// the sync watermark advanced, replication tailers woken once for the
// whole batch, and an auto-compaction run when CompactEvery is due.
//
// A failed write or fsync leaves the tail in an unknown state:
// publishLocked returns published=false with the error, and seq and the
// index stay untouched (recovery truncates the torn tail at the next
// open). A compaction failure returns published=true with its error.
func (s *Store) publishLocked(recs []Record, keyed []*dataexample.KeyedSet) (published bool, err error) {
	if s.wal != nil {
		if err := s.wal.flush(); err != nil {
			return false, err
		}
		s.met.walBytes.Set(float64(s.wal.bytes))
		if s.opts.SyncOnPut {
			if err := s.wal.sync(); err != nil {
				return false, err
			}
			s.met.walSyncs.Inc()
		}
	}
	for i, rec := range recs {
		var k *dataexample.KeyedSet
		if keyed != nil {
			k = keyed[i]
		}
		s.install(rec, k)
		if rec.Op == OpPut {
			s.puts.Add(1)
		} else {
			s.deletes.Add(1)
		}
	}
	s.seq = recs[len(recs)-1].Seq
	s.appends += len(recs)
	if s.wal != nil {
		if s.opts.SyncOnPut {
			s.lastSynced = s.seq
			s.unsynced = 0
		} else {
			s.unsynced += len(recs)
		}
	}
	s.repl.pushBatch(recs)
	if s.opts.CompactEvery > 0 && s.appends >= s.opts.CompactEvery {
		return true, s.snapshotLocked()
	}
	return true, nil
}

// PutBatch stores many example sets in one commit: hashing and
// canonicalisation run on the caller's goroutine (parallel across
// callers), then the whole slice rides one commit ticket — one WAL
// flush, one fsync. Results are positional; a per-item failure is
// reported in its PutResult while the returned error covers
// request-level failures (store closed). Items whose content is
// already stored are elided exactly like single Puts.
func (s *Store) PutBatch(items []PutItem) ([]PutResult, error) {
	results := make([]PutResult, len(items))
	ops := make([]commitOp, 0, len(items))
	for i, it := range items {
		if it.ID == "" {
			results[i].Err = fmt.Errorf("store: empty module ID")
			continue
		}
		h, err := HashSet(it.Examples)
		if err != nil {
			results[i].Err = fmt.Errorf("store: hashing examples for %s: %w", it.ID, err)
			continue
		}
		sh := s.shard(it.ID)
		sh.mu.RLock()
		old, ok := sh.recs[it.ID]
		unchanged := ok && old.hash == h
		sh.mu.RUnlock()
		// The index speaks for this item only when no earlier item of
		// the batch writes the module: [a=X, a=Y] with Y stored must
		// still end at Y, as two sequential Puts would.
		for j := 0; unchanged && j < len(ops); j++ {
			unchanged = ops[j].id != it.ID
		}
		if unchanged {
			results[i].Hash = h
			s.putNoops.Add(1)
			continue
		}
		ops = append(ops, commitOp{
			op:    OpPut,
			id:    it.ID,
			hash:  h,
			set:   it.Examples,
			keyed: it.Examples.KeyedInterned(s.symtab),
			res:   &results[i],
		})
	}
	if len(ops) == 0 {
		return results, nil
	}
	if err := s.submit(ops); err != nil {
		return results, err
	}
	return results, nil
}
