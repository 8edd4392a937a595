package store

import (
	"encoding/json"
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

// appendLocked encodes one record and buffers its frame. An encoding
// failure fails only this op (nothing touched the log); a write
// failure also arms abortErr — the buffered writer's error is sticky,
// so every later op in the batch must fail rather than stack frames
// behind a torn one.
func (s *Store) appendLocked(rec Record, op *commitOp, abortErr *error) error {
	if s.wal == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		op.res.Err = fmt.Errorf("store: encoding wal record: %w", err)
		return op.res.Err
	}
	if err := s.wal.appendFrame(EncodeFrame(payload)); err != nil {
		op.res.Err = err
		*abortErr = fmt.Errorf("store: batch aborted: %w", err)
		return err
	}
	s.met.walAppends.Inc()
	return nil
}

// commitLocked commits a batch of requests under logMu: re-check
// no-ops against the live index plus this batch's own writes, assign
// contiguous sequences, append every record through the buffered WAL
// writer, flush once, sync once (SyncOnPut), then publish the index
// updates and wake replication tailers once. Tickets close on return,
// after the batch's durability point — a SyncOnPut caller never
// unparks before its record is on stable storage.
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

	// overlay is this batch's view of per-module state layered over the
	// index, so same-batch writes to one module chain versions and
	// dedupe exactly as sequential Puts would. A nil entry is a
	// same-batch delete.
	overlay := make(map[string]*record)
	lookup := func(id string) (*record, bool) {
		if r, seen := overlay[id]; seen {
			return r, r != nil
		}
		sh := s.shard(id)
		sh.mu.RLock()
		r, ok := sh.recs[id]
		sh.mu.RUnlock()
		return r, ok
	}

	type pendingWrite struct {
		op  *commitOp
		rec Record
		idx *record // nil for deletes
	}
	var writes []pendingWrite
	seq := s.seq
	var abortErr error

	for _, req := range batch {
		for i := range req.ops {
			op := &req.ops[i]
			if abortErr != nil {
				op.res.Err = abortErr
				continue
			}
			switch op.op {
			case OpPut:
				cur, ok := lookup(op.id)
				if ok && cur.hash == op.hash {
					// Content already stored (by the index or by an
					// earlier op in this very batch): metadata-free no-op.
					op.res.Hash = op.hash
					s.putNoops.Add(1)
					continue
				}
				ver := uint64(1)
				if ok {
					ver = cur.version + 1
				}
				rec := Record{Seq: seq + 1, Op: OpPut, Module: op.id, Hash: op.hash, Version: ver, Examples: op.set}
				if err := s.appendLocked(rec, op, &abortErr); err != nil {
					continue
				}
				seq++
				nr := &record{set: op.set, keyed: op.keyed, hash: op.hash, version: ver, seq: seq}
				overlay[op.id] = nr
				writes = append(writes, pendingWrite{op: op, rec: rec, idx: nr})
				op.res.Hash = op.hash
				op.res.Changed = true
			case OpDelete:
				if _, ok := lookup(op.id); !ok {
					continue // deleting an absent module is a no-op
				}
				rec := Record{Seq: seq + 1, Op: OpDelete, Module: op.id}
				if err := s.appendLocked(rec, op, &abortErr); err != nil {
					continue
				}
				seq++
				overlay[op.id] = nil
				writes = append(writes, pendingWrite{op: op, rec: rec})
				op.res.Changed = true
			default:
				op.res.Err = fmt.Errorf("store: unknown op %q", op.op)
			}
		}
	}

	if len(writes) == 0 {
		return
	}

	// Durability point: one write-through and (under SyncOnPut) one
	// fsync for the whole batch. On failure the tail is in an unknown
	// state — fail every written op and leave seq and the index
	// untouched; recovery truncates the torn tail at the next open.
	if s.wal != nil {
		if err := s.wal.flush(); err != nil {
			for _, pw := range writes {
				pw.op.res.Err = err
				pw.op.res.Changed = false
			}
			return
		}
		s.met.walBytes.Set(float64(s.wal.bytes))
		if s.opts.SyncOnPut {
			if err := s.wal.sync(); err != nil {
				for _, pw := range writes {
					pw.op.res.Err = err
					pw.op.res.Changed = false
				}
				return
			}
			s.met.walSyncs.Inc()
		}
	}

	// Publish: sequence, index, counters, then one replication wake for
	// the whole batch.
	s.seq = seq
	s.appends += len(writes)
	if s.wal != nil {
		if s.opts.SyncOnPut {
			s.lastSynced = seq
			s.unsynced = 0
		} else {
			s.unsynced += len(writes)
		}
	}
	recs := make([]Record, 0, len(writes))
	for _, pw := range writes {
		sh := s.shard(pw.rec.Module)
		sh.mu.Lock()
		if pw.rec.Op == OpPut {
			sh.recs[pw.rec.Module] = pw.idx
		} else {
			delete(sh.recs, pw.rec.Module)
		}
		sh.mu.Unlock()
		if pw.rec.Op == OpPut {
			s.puts.Add(1)
		} else {
			s.deletes.Add(1)
		}
		recs = append(recs, pw.rec)
	}
	s.repl.pushBatch(recs)

	s.met.commitBatchSize.Observe(float64(len(writes)))
	if len(batch) > 1 {
		s.met.groupCommitWaits.Add(uint64(len(batch) - 1))
	}

	if s.opts.CompactEvery > 0 && s.appends >= s.opts.CompactEvery {
		if err := s.snapshotLocked(); err != nil {
			// The mutations themselves committed; surface the compaction
			// failure on every op that took part, alongside its hash and
			// changed=true.
			for _, req := range batch {
				for i := range req.ops {
					if req.ops[i].res.Err == nil {
						req.ops[i].res.Err = err
					}
				}
			}
		}
	}
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
