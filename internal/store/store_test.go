package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/typesys"
)

// testSet builds a small deterministic example set whose values exercise
// strings, numbers, lists and partition metadata. Distinct seeds give
// sets with distinct content hashes.
func testSet(t testing.TB, seed string, n int) dataexample.Set {
	t.Helper()
	lst, err := typesys.NewList(typesys.StringType, typesys.Str("a-"+seed), typesys.Str("b-"+seed))
	if err != nil {
		t.Fatal(err)
	}
	set := make(dataexample.Set, 0, n)
	for i := 0; i < n; i++ {
		set = append(set, dataexample.Example{
			Inputs: map[string]typesys.Value{
				"seq":   typesys.Str(fmt.Sprintf("ACGT-%s-%d", seed, i)),
				"limit": typesys.Intv(int64(i)),
			},
			Outputs: map[string]typesys.Value{
				"hits":  lst,
				"score": typesys.Floatv(0.5 + float64(i)),
			},
			InputPartitions:  map[string]string{"seq": "DNASequence", "limit": "Count"},
			OutputPartitions: map[string]string{"hits": "AccessionList"},
		})
	}
	return set
}

func TestPutGetHash(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(t, "x", 2)
	hash, changed, err := s.Put("m1", set)
	if err != nil || !changed {
		t.Fatalf("Put = %q, %v, %v; want changed", hash, changed, err)
	}
	want, err := HashSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if hash != want {
		t.Errorf("Put hash = %s, want %s", hash, want)
	}
	got, gotHash, ok := s.Get("m1")
	if !ok || gotHash != hash || len(got) != 2 {
		t.Fatalf("Get = %d examples, %q, %v", len(got), gotHash, ok)
	}
	if h, ok := s.Hash("m1"); !ok || h != hash {
		t.Errorf("Hash = %q, %v", h, ok)
	}
	if v, ok := s.Version("m1"); !ok || v != 1 {
		t.Errorf("Version = %d, %v; want 1", v, ok)
	}
	if _, _, ok := s.Get("nope"); ok {
		t.Error("Get of absent module should miss")
	}
}

func TestPutUnchangedIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	set := testSet(t, "x", 3)
	if _, changed, err := s.Put("m1", set); err != nil || !changed {
		t.Fatalf("first Put: changed=%v err=%v", changed, err)
	}
	before := s.Stats()
	// Same content, freshly built: must be detected by hash, not pointer.
	if _, changed, err := s.Put("m1", testSet(t, "x", 3)); err != nil || changed {
		t.Fatalf("identical Put: changed=%v err=%v; want no-op", changed, err)
	}
	after := s.Stats()
	if after.WALRecords != before.WALRecords || after.Seq != before.Seq {
		t.Errorf("no-op Put touched the WAL: %+v -> %+v", before, after)
	}
	if after.PutNoops != before.PutNoops+1 {
		t.Errorf("PutNoops = %d, want %d", after.PutNoops, before.PutNoops+1)
	}
	if v, _ := s.Version("m1"); v != 1 {
		t.Errorf("version after no-op = %d, want 1", v)
	}
	// Different content bumps the version.
	if _, changed, _ := s.Put("m1", testSet(t, "y", 3)); !changed {
		t.Fatal("different content should change")
	}
	if v, _ := s.Version("m1"); v != 2 {
		t.Errorf("version after change = %d, want 2", v)
	}
}

func TestRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]string{}
	encodings := map[string][]byte{}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("mod-%02d", i)
		set := testSet(t, id, 1+i%4)
		h, _, err := s.Put(id, set)
		if err != nil {
			t.Fatal(err)
		}
		hashes[id] = h
		enc, err := EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		encodings[id] = enc
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 20 {
		t.Fatalf("reopened store has %d modules, want 20", r.Len())
	}
	st := r.Stats()
	if st.Recovered != 20 {
		t.Errorf("Recovered = %d, want 20", st.Recovered)
	}
	for id, want := range hashes {
		set, h, ok := r.Get(id)
		if !ok {
			t.Fatalf("%s missing after restart", id)
		}
		if h != want {
			t.Errorf("%s: hash %s after restart, want %s", id, h, want)
		}
		enc, err := EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, encodings[id]) {
			t.Errorf("%s: encoding differs after restart", id)
		}
		// The hash must also recompute identically from the decoded values,
		// not just be carried along as metadata.
		if re, _ := HashSet(set); re != want {
			t.Errorf("%s: recomputed hash %s, want %s", id, re, want)
		}
	}
}

func TestSnapshotCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := s.Put(fmt.Sprintf("a%d", i), testSet(t, fmt.Sprint(i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Bump a1 so the snapshot carries version 2.
	if _, _, err := s.Put("a1", testSet(t, "v2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALRecords != 0 {
		t.Errorf("WALRecords after snapshot = %d, want 0", st.WALRecords)
	}
	if st.SnapshotSeq != st.Seq {
		t.Errorf("SnapshotSeq = %d, Seq = %d; want equal", st.SnapshotSeq, st.Seq)
	}
	// Mutations after the snapshot land in the fresh WAL.
	if _, _, err := s.Put("post", testSet(t, "post", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 5 { // a1..a4 + post
		t.Fatalf("reopened store has %d modules (%v), want 5", r.Len(), r.IDs())
	}
	if _, _, ok := r.Get("a0"); ok {
		t.Error("deleted module a0 resurrected by restart")
	}
	if _, _, ok := r.Get("post"); !ok {
		t.Error("post-snapshot put lost on restart")
	}
	if v, _ := r.Version("a1"); v != 2 {
		t.Errorf("a1 version after restart = %d, want 2", v)
	}
}

func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 7; i++ {
		if _, _, err := s.Put(fmt.Sprintf("m%d", i), testSet(t, fmt.Sprint(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SnapshotSeq == 0 {
		t.Error("auto-compaction never ran")
	}
	// 7 appends with CompactEvery=3: snapshots after the 3rd and 6th put,
	// leaving exactly one record in the WAL.
	if st.WALRecords != 1 {
		t.Errorf("WALRecords = %d, want 1", st.WALRecords)
	}
	if doc, err := readSnapshot(filepath.Join(dir, snapshotFileName)); err != nil || len(doc.Records) != 6 {
		t.Errorf("snapshot holds %d records (err %v), want 6", len(doc.Records), err)
	}
}

func TestDeleteSurvivesRestartWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("keep", testSet(t, "k", 1))
	s.Put("drop", testSet(t, "d", 1))
	if err := s.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, ok := r.Get("drop"); ok {
		t.Error("tombstoned module came back")
	}
	if _, _, ok := r.Get("keep"); !ok {
		t.Error("kept module lost")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("m", testSet(t, "m", 1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, _, err := s.Put("m2", testSet(t, "m2", 1)); err == nil {
		t.Error("Put after Close should fail")
	}
	if err := s.Delete("m"); err == nil {
		t.Error("Delete after Close should fail")
	}
	if _, _, ok := s.Get("m"); !ok {
		t.Error("reads should keep working after Close")
	}
}

// TestConcurrentReadersOneWriter is the -race scenario from the issue:
// one writer mutating while many readers browse, plus a compaction in
// the middle. Correctness assertions are light; the point is that the
// race detector stays quiet and readers always see a consistent
// (set, hash) pair.
func TestConcurrentReadersOneWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{CompactEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const modules = 8
	const rounds = 40
	sets := make([]dataexample.Set, rounds)
	wantHash := make([]string, rounds)
	for i := range sets {
		sets[i] = testSet(t, fmt.Sprint(i), 1+i%3)
		h, err := HashSet(sets[i])
		if err != nil {
			t.Fatal(err)
		}
		wantHash[i] = h
	}
	valid := map[string]bool{}
	for _, h := range wantHash {
		valid[h] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for m := 0; m < modules; m++ {
					id := fmt.Sprintf("mod-%d", m)
					if set, h, ok := s.Get(id); ok {
						if !valid[h] {
							t.Errorf("reader saw unknown hash %s", h)
							return
						}
						if re, _ := HashSet(set); re != h {
							t.Errorf("reader saw torn record: hash %s vs recomputed %s", h, re)
							return
						}
					}
				}
				s.IDs()
				s.Stats()
			}
		}()
	}

	for i := 0; i < rounds; i++ {
		id := fmt.Sprintf("mod-%d", i%modules)
		if _, _, err := s.Put(id, sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if s.Len() != modules {
		t.Errorf("Len = %d, want %d", s.Len(), modules)
	}
}

// TestGetVersionedConsistent: GetVersioned reads set, hash and version
// from one record while a writer alternates two contents on one module,
// so odd versions always carry the first content and even versions the
// second. Separate Get and Version calls pair a record's hash with the
// next record's version when a write lands between them.
func TestGetVersionedConsistent(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sets := [2]dataexample.Set{testSet(t, "odd", 1), testSet(t, "even", 2)}
	var hashes [2]string
	for i, set := range sets {
		if hashes[i], err = HashSet(set); err != nil {
			t.Fatal(err)
		}
	}
	const writes = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			if _, _, err := s.Put("m", sets[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reads := 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		set, hash, version, ok := s.GetVersioned("m")
		if !ok {
			continue
		}
		want := (version + 1) % 2 // version 1 is sets[0]
		if hash != hashes[want] || len(set) != len(sets[want]) {
			t.Fatalf("read %d: version %d carries hash %s with %d examples, want hash %s with %d",
				reads, version, hash, len(set), hashes[want], len(sets[want]))
		}
	}
	if _, _, version, _ := s.GetVersioned("m"); version != writes {
		t.Errorf("final version %d, want %d", version, writes)
	}
}

// readFixture opens an in-memory store holding 64 annotated modules and
// returns it with their IDs.
func readFixture(tb testing.TB) (*Store, []string) {
	tb.Helper()
	s, err := Open("", Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("mod-%d", i)
		if _, _, err := s.Put(ids[i], testSet(tb, ids[i], 4)); err != nil {
			tb.Fatal(err)
		}
	}
	return s, ids
}

// TestGetAllocatesNothing: a store read, the serving hot loop, returns
// the shared set and hash without allocating.
func TestGetAllocatesNothing(t *testing.T) {
	s, ids := readFixture(t)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, ok := s.Get(ids[i%len(ids)]); !ok {
			t.Fatal("miss")
		}
		i++
	}); n != 0 {
		t.Errorf("Get allocates %.0f per call, want 0", n)
	}
}

// BenchmarkStoreRead measures Get, rotating over 64 stored modules.
func BenchmarkStoreRead(b *testing.B) {
	b.Run("get", func(b *testing.B) {
		s, ids := readFixture(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := s.Get(ids[i%len(ids)]); !ok {
				b.Fatal("miss")
			}
		}
	})
}
