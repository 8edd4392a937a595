package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dexa/internal/telemetry"
)

func TestPutBatchBasics(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	results, err := s.PutBatch([]PutItem{
		{ID: "a", Examples: replSet("a1")},
		{ID: "b", Examples: replSet("b1")},
		{ID: "c", Examples: replSet("c1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || !res.Changed || res.Hash == "" {
			t.Fatalf("result %d: %+v", i, res)
		}
	}
	if got := s.Seq(); got != 3 {
		t.Fatalf("seq after batch %d, want 3", got)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("%d modules stored, want 3", got)
	}

	// Re-putting identical content is a no-op per item.
	again, err := s.PutBatch([]PutItem{{ID: "a", Examples: replSet("a1")}, {ID: "b", Examples: replSet("b1")}})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range again {
		if res.Err != nil || res.Changed {
			t.Fatalf("no-op result %d reported a change: %+v", i, res)
		}
		if res.Hash != results[i].Hash {
			t.Fatalf("no-op result %d hash drifted", i)
		}
	}
	if got := s.Seq(); got != 3 {
		t.Fatalf("no-op batch advanced seq to %d", got)
	}

	// Same module twice in one batch: versions chain exactly as two
	// sequential Puts would, and the second write wins.
	dup, err := s.PutBatch([]PutItem{
		{ID: "d", Examples: replSet("d1")},
		{ID: "d", Examples: replSet("d2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dup[0].Changed || !dup[1].Changed {
		t.Fatalf("in-batch chain: %+v", dup)
	}
	if v, _ := s.Version("d"); v != 2 {
		t.Fatalf("in-batch chained version %d, want 2", v)
	}
	if h, _ := s.Hash("d"); h != dup[1].Hash {
		t.Fatal("last write in batch did not win")
	}

	// A bad item fails positionally without sinking its batch.
	mixed, err := s.PutBatch([]PutItem{
		{ID: "", Examples: replSet("x")},
		{ID: "e", Examples: replSet("e1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0].Err == nil {
		t.Fatal("empty ID accepted")
	}
	if mixed[1].Err != nil || !mixed[1].Changed {
		t.Fatalf("valid item alongside a bad one: %+v", mixed[1])
	}
}

// TestPutBatchRewriteBackToStored: a batch that changes a module and
// then writes its stored content back ends at the stored content with
// two version bumps, exactly as two sequential Puts would — the
// caller-side no-op check must not elide the second write.
func TestPutBatchRewriteBackToStored(t *testing.T) {
	s := mustOpen(t, "")
	if _, _, err := s.Put("a", replSet("y")); err != nil {
		t.Fatal(err)
	}
	res, err := s.PutBatch([]PutItem{{ID: "a", Examples: replSet("x")}, {ID: "a", Examples: replSet("y")}})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Changed || !res[1].Changed {
		t.Fatalf("results %+v, want both changed", res)
	}
	want, _ := HashSet(replSet("y"))
	if h, _ := s.Hash("a"); h != want {
		t.Fatal("the batch's last write did not win")
	}
	if v, _ := s.Version("a"); v != 3 {
		t.Fatalf("version %d, want 3", v)
	}
}

func TestPutBatchPersistsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]PutItem, 5)
	for i := range items {
		items[i] = PutItem{ID: fmt.Sprintf("mod-%d", i), Examples: replSet(fmt.Sprintf("v%d", i))}
	}
	if _, err := s.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("mod-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Seq(); got != 6 {
		t.Fatalf("recovered seq %d, want 6", got)
	}
	assertMirrors(t, s, re)
}

// TestGroupCommitMatchesSequentialPuts runs the same SyncOnPut puts and
// deletes from 8 concurrent writers and from one goroutine. Each writer
// owns its IDs, so the final state does not depend on interleaving: both
// stores must hold the same IDs, hashes, versions and sequence, and the
// concurrent one must recover exactly that state after close and reopen.
func TestGroupCommitMatchesSequentialPuts(t *testing.T) {
	const writers, ids, rounds = 8, 8, 5
	write := func(s *Store, w int) error {
		for r := 0; r < rounds; r++ {
			for k := 0; k < ids; k++ {
				id := fmt.Sprintf("w%d-%d", w, k)
				if _, _, err := s.Put(id, replSet(fmt.Sprintf("%s-r%d", id, r))); err != nil {
					return err
				}
			}
			if err := s.Delete(fmt.Sprintf("w%d-%d", w, r)); err != nil {
				return err
			}
		}
		return nil
	}
	open := func(dir string) *Store {
		s, err := Open(dir, Options{SyncOnPut: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	sequential := open(t.TempDir())
	for w := 0; w < writers; w++ {
		if err := write(sequential, w); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	concurrent := open(dir)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) { errs <- write(concurrent, w) }(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	assertMirrors(t, sequential, concurrent)

	if err := concurrent.Close(); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, sequential, open(dir))
}

// TestGroupCommitAmortisesFsync: SyncOnPut puts that queue while the
// committer is parked behind logMu commit in at most two fsyncs — one
// for whatever the committer took off the queue before it parked, one
// for everything queued behind it — instead of one fsync per put.
func TestGroupCommitAmortisesFsync(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(t.TempDir(), Options{SyncOnPut: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const puts = 8
	reqs := make([]*commitReq, puts)
	s.logMu.Lock()
	for i := range reqs {
		// The request Put would hand to submit, enqueued from here so
		// that every put is known to be queued before logMu is released.
		id := fmt.Sprintf("mod-%d", i)
		set := replSet(id)
		h, err := HashSet(set)
		if err != nil {
			s.logMu.Unlock()
			t.Fatal(err)
		}
		op := commitOp{op: OpPut, id: id, hash: h, set: set, keyed: set.KeyedInterned(s.symtab), res: &PutResult{}}
		reqs[i] = &commitReq{ops: []commitOp{op}, done: make(chan struct{})}
		s.commitCh <- reqs[i]
	}
	s.logMu.Unlock()
	for i, req := range reqs {
		<-req.done
		if res := req.ops[0].res; req.err != nil || res.Err != nil || !res.Changed {
			t.Fatalf("put %d: request error %v, result %+v", i, req.err, res)
		}
	}
	if got := s.Seq(); got != puts {
		t.Fatalf("seq %d after %d puts", got, puts)
	}
	if syncs := reg.Counter("dexa_store_wal_syncs_total", "").Value(); syncs > 2 {
		t.Errorf("%d queued SyncOnPut puts took %d fsyncs, want at most 2", puts, syncs)
	}
}

// TestGroupCommitHammer races Put, PutBatch, Delete, Flush and
// Snapshot against the committer goroutine, then proves the recovered
// state equals the live state — the race-store CI target leans on it.
func TestGroupCommitHammer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 64})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("w%d-%d", w, rng.Intn(6))
				switch rng.Intn(10) {
				case 0:
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				case 2:
					items := []PutItem{
						{ID: id, Examples: replSet(fmt.Sprintf("%s-b%d", id, i))},
						{ID: fmt.Sprintf("w%d-x", w), Examples: replSet(fmt.Sprintf("x%d-%d", w, i))},
					}
					if _, err := s.PutBatch(items); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if err := s.Snapshot(); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, _, err := s.Put(id, replSet(fmt.Sprintf("%s-%d", id, i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertMirrors(t, s, re)
}

// TestFlushSkipsRedundantSync pins the double-fsync fix: a Flush whose
// tail is already durable (SyncOnPut batches, or a previous Flush)
// must not fsync again nor inflate dexa_store_wal_syncs_total.
func TestFlushSkipsRedundantSync(t *testing.T) {
	t.Run("after-sync-on-put", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		s, err := Open(t.TempDir(), Options{SyncOnPut: true, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, _, err := s.Put("a", replSet("a1")); err != nil {
			t.Fatal(err)
		}
		syncs := reg.Counter("dexa_store_wal_syncs_total", "")
		after := syncs.Value()
		if after == 0 {
			t.Fatal("SyncOnPut put did not sync")
		}
		st := s.Stats()
		if st.LastSyncedSeq != st.Seq || st.UnsyncedRecords != 0 {
			t.Fatalf("durable tail misreported: %+v", st)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := syncs.Value(); got != after {
			t.Fatalf("redundant Flush synced again (%d -> %d)", after, got)
		}
	})
	t.Run("unsynced-tail", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		s, err := Open(t.TempDir(), Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, _, err := s.Put("a", replSet("a1")); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.UnsyncedRecords != 1 || st.LastSyncedSeq != 0 {
			t.Fatalf("unsynced tail misreported: %+v", st)
		}
		syncs := reg.Counter("dexa_store_wal_syncs_total", "")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := syncs.Value(); got != 1 {
			t.Fatalf("first Flush synced %d times, want 1", got)
		}
		st = s.Stats()
		if st.UnsyncedRecords != 0 || st.LastSyncedSeq != st.Seq {
			t.Fatalf("post-Flush stats: %+v", st)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := syncs.Value(); got != 1 {
			t.Fatalf("second Flush synced again (%d)", got)
		}
	})
}

// walFrameOffsets parses a WAL file and returns the byte offset where
// each frame starts (after the magic).
func walFrameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	off := int64(len(walMagic))
	for off < int64(len(data)) {
		offsets = append(offsets, off)
		if off+walFrameOverhead > int64(len(data)) {
			t.Fatalf("trailing garbage at offset %d", off)
		}
		length := binary.BigEndian.Uint32(data[off : off+4])
		off += walFrameOverhead + int64(length)
	}
	return offsets
}

// TestCrashRecoveryMidBatch kills the store between a batch's append
// and its sync: the WAL is cut mid-frame inside the batch, and replay
// must land on the preceding frame boundary — a prefix of the batch
// survives whole, nothing is half-applied, and writing resumes from
// the recovered sequence.
func TestCrashRecoveryMidBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]PutItem, 4)
	for i := range items {
		items[i] = PutItem{ID: fmt.Sprintf("mod-%d", i), Examples: replSet(fmt.Sprintf("v%d", i))}
	}
	if _, err := s.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: the batch reached the OS (buffered write-through) but
	// not stable storage; the surviving file ends mid-way through the
	// third frame.
	walPath := filepath.Join(dir, walFileName)
	offsets := walFrameOffsets(t, walPath)
	if len(offsets) != 4 {
		t.Fatalf("batch wrote %d frames, want 4", len(offsets))
	}
	if err := os.Truncate(walPath, offsets[2]+5); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Seq(); got != 2 {
		t.Fatalf("recovered seq %d, want 2 (the intact prefix)", got)
	}
	st := re.Stats()
	if !st.TailTruncated || st.Recovered != 2 {
		t.Fatalf("recovery stats: %+v", st)
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("mod-%d", i)
		if _, _, ok := re.Get(id); !ok {
			t.Fatalf("surviving record %s missing", id)
		}
		if v, _ := re.Version(id); v != 1 {
			t.Fatalf("surviving record %s has version %d", id, v)
		}
	}
	for i := 2; i < 4; i++ {
		if _, _, ok := re.Get(fmt.Sprintf("mod-%d", i)); ok {
			t.Fatalf("half-applied record mod-%d survived the torn tail", i)
		}
	}
	// The truncation point is exactly the frame boundary before the cut.
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != offsets[2] {
		t.Fatalf("truncated to %d, want frame boundary %d", fi.Size(), offsets[2])
	}
	// Writing resumes from the recovered sequence.
	if _, _, err := re.Put("fresh", replSet("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := re.Seq(); got != 3 {
		t.Fatalf("post-recovery seq %d, want 3", got)
	}
}

// TestGoldenBatchWAL pins the on-disk bytes of a batched commit: a
// PutBatch writes plain consecutive frames — the same wire format as
// sequential Puts, with no batch framing — so recovery and the
// replication feed are oblivious to batching.
func TestGoldenBatchWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch([]PutItem{
		{ID: "golden", Examples: goldenSet()},
		{ID: "golden-slim", Examples: goldenSet()[:1]},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "walbatch.golden", data)
}

// BenchmarkStoreWrite measures the write path with every put a real WAL
// append (distinct content, never a hash no-op): put-sync is one
// SyncOnPut writer, whose every put parks alone and pays its own fsync;
// group-commit is 8 SyncOnPut writers sharing the committer's batches;
// put is one writer without SyncOnPut, the append cost alone.
func BenchmarkStoreWrite(b *testing.B) {
	run := func(writers int, syncOnPut bool) func(b *testing.B) {
		return func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{SyncOnPut: syncOnPut})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			work := make(chan int, writers)
			errs := make(chan error, writers)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var failed error
					for i := range work { // keep draining after a failure so the sender never blocks
						id := fmt.Sprintf("bench-w%d-%d", w, i%64)
						if _, _, err := s.Put(id, replSet(fmt.Sprintf("%s-i%d", id, i))); err != nil && failed == nil {
							failed = err
							errs <- err
						}
					}
				}(w)
			}
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("put-sync", run(1, true))
	b.Run("group-commit", run(8, true))
	b.Run("put", run(1, false))
}
