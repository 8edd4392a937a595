package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The seeded random-history test: a model-based check of the store's
// write path without an injectable file layer. One goroutine drives a
// random interleaving of Put, PutBatch, Delete, Snapshot, Flush and
// auto-compaction against an on-disk leader while a plain map models the
// committed state after every sequence number. Along the way it
//
//   - compares the leader with the model after every call;
//   - at random quiescent points copies the store directory, cuts
//     wal.log at a random byte offset (a crash that kept only a prefix of
//     the written tail) and reopens the copy: the recovered state must be
//     the model's state at the recovered sequence, and when the cut spared
//     the synced bytes that sequence must cover every write acknowledged
//     under SyncOnPut or by Flush or a snapshot;
//   - tails the leader into a follower through TailSince and
//     ApplyReplicatedBatch in random batch splits, re-delivering already
//     applied records and now and then dropping one to open a gap: the
//     follower's state and Seq must equal a leader prefix at every step;
//   - journals every call in a Journal and runs the same cut-and-reopen
//     check on it.
//
// Not modelled: a crash inside the OS between a write and its fsync that
// reorders or drops written pages — the copy sees every byte the store
// wrote, and only the cut takes bytes away.

// modelRec is the model's view of one stored module.
type modelRec struct {
	hash    string
	version uint64
}

type model map[string]modelRec

func (m model) clone() model {
	c := make(model, len(m))
	for id, r := range m {
		c[id] = r
	}
	return c
}

// history is one seeded run: the leader, its follower and journal, and
// the model's state after every committed sequence.
type history struct {
	t     *testing.T
	rng   *rand.Rand
	root  string
	opts  Options
	store *Store

	cur    model
	states []model // states[seq]: the committed state after sequence seq

	// Compaction model: WAL records since the last snapshot, and the
	// sequence the last snapshot captured.
	appends int
	snapSeq uint64

	// Durability: the highest sequence acknowledged as durable, and the
	// WAL's size at that point (a cut at or past it spares every synced
	// byte).
	durableSeq uint64
	walSynced  int64

	follower  *Store
	delivered []Record

	journal       *Journal
	journaled     []journalRec
	journalSynced int // records covered by the last Journal.Sync
	journalSize   int64
}

func TestStoreRandomHistory(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, syncOnPut := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed%d/sync=%v", seed, syncOnPut), func(t *testing.T) {
				runHistory(t, seed, syncOnPut, 150)
			})
		}
	}
}

func runHistory(t *testing.T, seed int64, syncOnPut bool, steps int) {
	rng := rand.New(rand.NewSource(seed))
	root := t.TempDir()
	h := &history{t: t, rng: rng, root: root, cur: model{}, states: []model{{}}}
	h.opts = Options{SyncOnPut: syncOnPut, CompactEvery: rng.Intn(2) * (3 + rng.Intn(6))}
	h.store = h.open(filepath.Join(root, "leader"), h.opts)
	h.walSynced = h.walSize()
	h.follower = h.open(filepath.Join(root, "follower"), Options{SyncOnPut: syncOnPut, CompactEvery: rng.Intn(2) * (2 + rng.Intn(5))})
	var err error
	if h.journal, err = OpenJournal(filepath.Join(root, "events.log"), nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.journal.Close() })
	h.journalSize = fileSize(t, filepath.Join(root, "events.log"))

	for step := 0; step < steps; step++ {
		h.step()
		h.checkLeader(step)
		if rng.Intn(3) == 0 {
			h.pull()
		}
		if rng.Intn(8) == 0 {
			h.crashCheck()
			h.journalCrashCheck()
		}
	}
	// The follower catches up completely and survives its own restart.
	for h.follower.Seq() < h.store.Seq() {
		h.pull()
	}
	assertMirrors(t, h.store, h.follower)
	dir := h.follower.Dir()
	if err := h.follower.Close(); err != nil {
		t.Fatal(err)
	}
	h.follower = h.open(dir, Options{})
	h.checkState(h.follower, "reopened follower")
}

func (h *history) open(dir string, opts Options) *Store {
	s, err := Open(dir, opts)
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { s.Close() })
	return s
}

func fileSize(t *testing.T, path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func (h *history) walSize() int64 {
	return fileSize(h.t, filepath.Join(h.store.Dir(), walFileName))
}

// step runs one random leader call and advances the model to match.
func (h *history) step() {
	rng := h.rng
	// Six modules and three contents each: puts often repeat stored
	// content (no-ops) and batches often write one module twice.
	id := func() string { return fmt.Sprintf("m%d", rng.Intn(6)) }
	item := func() PutItem {
		mid := id()
		return PutItem{ID: mid, Examples: replSet(fmt.Sprintf("%s-%d", mid, rng.Intn(3)))}
	}
	var op string
	switch r := rng.Intn(20); {
	case r < 7:
		op = "put"
		it := item()
		_, changed, err := h.store.Put(it.ID, it.Examples)
		if err != nil {
			h.t.Fatalf("Put: %v", err)
		}
		if got := h.commit([]PutItem{it}); (got == 1) != changed {
			h.t.Fatalf("Put %s changed=%v, model committed %d records", it.ID, changed, got)
		}
	case r < 12:
		op = "putbatch"
		var items []PutItem
		for n := 1 + rng.Intn(4); n > 0; n-- {
			items = append(items, item())
		}
		res, err := h.store.PutBatch(items)
		if err != nil {
			h.t.Fatalf("PutBatch: %v", err)
		}
		changed := 0
		for _, r := range res {
			if r.Err != nil {
				h.t.Fatalf("PutBatch item: %v", r.Err)
			}
			if r.Changed {
				changed++
			}
		}
		if got := h.commit(items); got != changed {
			h.t.Fatalf("PutBatch changed %d items, model committed %d", changed, got)
		}
	case r < 15:
		op = "delete"
		mid := id()
		if err := h.store.Delete(mid); err != nil {
			h.t.Fatalf("Delete: %v", err)
		}
		h.commit([]PutItem{{ID: mid, Examples: nil}})
	case r < 18:
		op = "flush"
		if err := h.store.Flush(); err != nil {
			h.t.Fatalf("Flush: %v", err)
		}
		h.markDurable()
	default:
		op = "snapshot"
		if err := h.store.Snapshot(); err != nil {
			h.t.Fatalf("Snapshot: %v", err)
		}
		h.snapshotted()
	}
	if h.opts.SyncOnPut {
		h.markDurable()
	}
	h.journalOp(op)
}

// commit applies one commit batch to the model — a nil Examples item is
// a delete — and returns how many records it committed.
func (h *history) commit(items []PutItem) int {
	n := 0
	for _, it := range items {
		old, ok := h.cur[it.ID]
		if it.Examples == nil {
			if !ok {
				continue
			}
			delete(h.cur, it.ID)
		} else {
			hash, err := HashSet(it.Examples)
			if err != nil {
				h.t.Fatal(err)
			}
			if ok && old.hash == hash {
				continue
			}
			h.cur[it.ID] = modelRec{hash: hash, version: old.version + 1}
		}
		h.states = append(h.states, h.cur.clone())
		n++
	}
	if n > 0 {
		h.appends += n
		if h.opts.CompactEvery > 0 && h.appends >= h.opts.CompactEvery {
			h.snapshotted()
		}
	}
	return n
}

func (h *history) seq() uint64 { return uint64(len(h.states) - 1) }

func (h *history) snapshotted() {
	h.appends = 0
	h.snapSeq = h.seq()
	h.markDurable()
}

func (h *history) markDurable() {
	h.durableSeq = h.seq()
	h.walSynced = h.walSize()
}

func (h *history) checkLeader(step int) {
	if got := h.store.Seq(); got != h.seq() {
		h.t.Fatalf("step %d: leader seq %d, model %d", step, got, h.seq())
	}
	if got := h.store.Stats().SnapshotSeq; got != h.snapSeq {
		h.t.Fatalf("step %d: leader snapshot seq %d, model %d", step, got, h.snapSeq)
	}
	h.checkState(h.store, fmt.Sprintf("leader at step %d", step))
}

// checkState requires s to hold exactly the model's state at s's Seq.
func (h *history) checkState(s *Store, what string) {
	h.t.Helper()
	seq := s.Seq()
	if seq > h.seq() {
		h.t.Fatalf("%s: seq %d beyond the leader's %d", what, seq, h.seq())
	}
	want := h.states[seq]
	ids := s.IDs()
	if len(ids) != len(want) {
		h.t.Fatalf("%s at seq %d: %d modules %v, want %d", what, seq, len(ids), ids, len(want))
	}
	for _, id := range ids {
		w, ok := want[id]
		hash, _ := s.Hash(id)
		ver, _ := s.Version(id)
		if !ok || hash != w.hash || ver != w.version {
			h.t.Fatalf("%s at seq %d: %s = (%.8s, v%d), want (%.8s, v%d, present=%v)", what, seq, id, hash, ver, w.hash, w.version, ok)
		}
	}
}

// pull tails the leader into the follower: one TailSince, delivered in
// random chunks, each prefixed with re-delivered records the follower
// already holds and now and then missing one record (a gap).
func (h *history) pull() {
	f := h.follower
	recs, _, reset := h.store.TailSince(f.Seq(), h.rng.Intn(6))
	if reset {
		h.t.Fatalf("leader answered cursor %d with a reset inside its window", f.Seq())
	}
	for len(recs) > 0 {
		n := 1 + h.rng.Intn(len(recs))
		fresh := append([]Record(nil), recs[:n]...)
		recs = recs[n:]
		dups := h.rng.Intn(3)
		if dups > len(h.delivered) {
			dups = len(h.delivered)
		}
		chunk := append(append([]Record(nil), h.delivered[len(h.delivered)-dups:]...), fresh...)
		wantApplied := len(fresh)
		gap := len(fresh) >= 2 && h.rng.Intn(6) == 0
		if gap {
			drop := h.rng.Intn(len(fresh) - 1) // a later record follows it
			chunk = append(chunk[:dups+drop], chunk[dups+drop+1:]...)
			wantApplied = drop
		}
		before := f.Seq()
		applied, skipped, err := f.ApplyReplicatedBatch(chunk)
		if gap != (err != nil) || (gap && !strings.Contains(err.Error(), "gap")) {
			h.t.Fatalf("follower apply (gap=%v): %v", gap, err)
		}
		if applied != wantApplied || skipped != dups {
			h.t.Fatalf("follower applied %d skipped %d, want %d/%d", applied, skipped, wantApplied, dups)
		}
		if got := f.Seq(); got != before+uint64(applied) {
			h.t.Fatalf("follower seq %d after applying %d from %d", got, applied, before)
		}
		h.delivered = append(h.delivered, fresh[:applied]...)
		h.checkState(f, "follower")
		if gap {
			return // the next pull re-delivers from the follower's cursor
		}
	}
}

// crashCheck copies the leader's directory, cuts the copied WAL at a
// random offset and reopens it.
func (h *history) crashCheck() {
	src := h.store.Dir()
	dst, err := os.MkdirTemp(h.root, "crash-")
	if err != nil {
		h.t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(src, snapshotFileName)); err == nil {
		if err := os.WriteFile(filepath.Join(dst, snapshotFileName), data, 0o644); err != nil {
			h.t.Fatal(err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(src, walFileName))
	if err != nil {
		h.t.Fatal(err)
	}
	cut := h.cut(int64(len(wal)), h.walSynced)
	if err := os.WriteFile(filepath.Join(dst, walFileName), wal[:cut], 0o644); err != nil {
		h.t.Fatal(err)
	}
	r, err := Open(dst, Options{})
	if err != nil {
		h.t.Fatalf("reopening a WAL cut at %d of %d: %v", cut, len(wal), err)
	}
	what := fmt.Sprintf("recovered (cut %d of %d, synced %d)", cut, len(wal), h.walSynced)
	h.checkState(r, what)
	seq := r.Seq()
	if cut >= h.walSynced && seq < h.durableSeq {
		h.t.Fatalf("%s: seq %d lost writes acknowledged durable through seq %d", what, seq, h.durableSeq)
	}
	// The recovered log takes new appends on a clean prefix: a write
	// after recovery survives the next reopen, which finds no torn tail.
	// The write (an empty set) is shorter than any history record, so a
	// torn remnant left in place would outlast it.
	if _, _, err := r.Put("z", nil); err != nil {
		h.t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		h.t.Fatal(err)
	}
	r = h.open(dst, Options{})
	if r.Seq() != seq+1 || r.Stats().TailTruncated {
		h.t.Fatalf("%s: after one more put and a reopen seq %d (want %d), torn tail %v", what, r.Seq(), seq+1, r.Stats().TailTruncated)
	}
}

// cut picks a crash offset in [0, size]: usually at or past synced (a
// crash the durability contract covers), sometimes before it.
func (h *history) cut(size, synced int64) int64 {
	if synced > size || h.rng.Intn(4) == 0 {
		return h.rng.Int63n(size + 1)
	}
	return synced + h.rng.Int63n(size-synced+1)
}

func (h *history) journalOp(op string) {
	rec := journalRec{N: len(h.journaled), Op: op}
	if err := h.journal.Append(rec); err != nil {
		h.t.Fatalf("journal Append: %v", err)
	}
	h.journaled = append(h.journaled, rec)
	if h.rng.Intn(5) == 0 {
		if err := h.journal.Sync(); err != nil {
			h.t.Fatalf("journal Sync: %v", err)
		}
		h.journalSynced = len(h.journaled)
		h.journalSize = fileSize(h.t, filepath.Join(h.root, "events.log"))
	}
}

// journalCrashCheck cuts a copy of the journal at a random offset and
// reopens it: it must replay a prefix of what was appended — all of the
// synced records when the cut spared them — and append after it.
func (h *history) journalCrashCheck() {
	data, err := os.ReadFile(filepath.Join(h.root, "events.log"))
	if err != nil {
		h.t.Fatal(err)
	}
	cut := h.cut(int64(len(data)), h.journalSize)
	path := filepath.Join(h.root, fmt.Sprintf("journal-crash-%d.log", len(h.journaled)))
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		h.t.Fatal(err)
	}
	var got []journalRec
	replay := func(payload []byte) error {
		var r journalRec
		if err := json.Unmarshal(payload, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	}
	j, err := OpenJournal(path, replay)
	if err != nil {
		h.t.Fatalf("reopening a journal cut at %d of %d: %v", cut, len(data), err)
	}
	for i, r := range got {
		if i >= len(h.journaled) || r != h.journaled[i] {
			h.t.Fatalf("journal cut at %d: record %d = %+v, not the appended prefix", cut, i, r)
		}
	}
	if cut >= h.journalSize && len(got) < h.journalSynced {
		h.t.Fatalf("journal cut at %d (synced %d): replayed %d records, %d were synced", cut, h.journalSize, len(got), h.journalSynced)
	}
	if j.Records() != int64(len(got)) {
		h.t.Fatalf("journal Records() = %d after replaying %d", j.Records(), len(got))
	}
	next := journalRec{N: len(got), Op: "z"}
	if err := j.Append(next); err != nil {
		h.t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		h.t.Fatal(err)
	}
	got = got[:0]
	if j, err = OpenJournal(path, replay); err != nil {
		h.t.Fatal(err)
	}
	defer j.Close()
	if len(got) == 0 || got[len(got)-1] != next || j.TailTruncated() {
		h.t.Fatalf("journal cut at %d: the record appended after recovery did not survive a clean reopen", cut)
	}
}
