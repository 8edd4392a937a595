package bio

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// homologySearchSequential is the oracle for HomologySearch: score every
// entry on one goroutine, sort all hits, keep the top k.
func homologySearchSequential(db *Database, query, algo string, k int) []Hit {
	if k <= 0 {
		return nil
	}
	var al aligner
	hits := make([]Hit, 0, len(db.entries))
	for _, e := range db.entries {
		s, ok := al.score(algo, query, e.Protein)
		if !ok {
			return nil
		}
		hits = append(hits, Hit{Accession: e.Accession, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool { return better(hits[i], hits[j]) })
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TestHomologySearchMatchesSequential is the golden determinism test: the
// top-k scan must return byte-identical hit lists to the sequential
// reference for every algorithm, a spread of k (including k larger than
// the database), and many queries. It runs at the default GOMAXPROCS
// (sharded on a multi-core host) and at GOMAXPROCS=1, where the whole
// database is one shard.
func TestHomologySearchMatchesSequential(t *testing.T) {
	db := NewDatabase(DefaultSize)
	queries := []string{}
	for i := 0; i < 12; i++ {
		e, _ := db.ByIndex(i * 19 % db.Len())
		queries = append(queries, e.Protein)
	}
	queries = append(queries, "MKT", "")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		runtime.GOMAXPROCS(procs)
		for _, algo := range Algorithms() {
			for _, k := range []int{1, 3, 5, 17, DefaultSize, DefaultSize + 50} {
				for qi, q := range queries {
					want := homologySearchSequential(db, q, algo, k)
					got := db.HomologySearch(q, algo, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("GOMAXPROCS=%d %s k=%d query %d: top-k result differs from sequential\n got %v\nwant %v",
							procs, algo, k, qi, got, want)
					}
				}
			}
		}
	}
}

func TestHomologySearchDegenerateInputs(t *testing.T) {
	db := NewDatabase(DefaultSize)
	if db.HomologySearch("MKT", "warp-drive", 3) != nil {
		t.Error("unknown algorithm must yield nil")
	}
	if db.HomologySearch("MKT", AlgoKmer, 0) != nil {
		t.Error("k=0 must yield nil")
	}
	if db.HomologySearch("MKT", AlgoKmer, -4) != nil {
		t.Error("negative k must yield nil")
	}
	tiny := NewDatabase(3) // below the min shard size: one shard
	if hits := tiny.HomologySearch("MKT", AlgoKmer, 2); len(hits) != 2 {
		t.Errorf("tiny database: %v", hits)
	}
}

// TestTopKHeap exercises the bounded heap directly against a sort-based
// oracle on random hit streams.
func TestTopKHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(12)
		n := rng.Intn(100)
		hits := make([]Hit, n)
		for i := range hits {
			hits[i] = Hit{Accession: UniprotAccession(i), Score: rng.Intn(10)}
		}
		top := newTopK(k)
		for _, h := range hits {
			top.offer(h)
		}
		got := top.drain()
		sort.Slice(got, func(i, j int) bool { return better(got[i], got[j]) })
		want := append([]Hit(nil), hits...)
		sort.Slice(want, func(i, j int) bool { return better(want[i], want[j]) })
		if len(want) > k {
			want = want[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d, n=%d): heap kept %v, want %v", trial, k, n, got, want)
		}
	}
}

// TestAlignerBuffersMatchFreshAllocation pins that buffer reuse does not
// change any score (stale row contents would).
func TestAlignerBuffersMatchFreshAllocation(t *testing.T) {
	db := NewDatabase(24)
	var al aligner
	q, _ := db.ByIndex(5)
	for _, algo := range Algorithms() {
		for i := 0; i < db.Len(); i++ {
			e, _ := db.ByIndex(i)
			reused, _ := al.score(algo, q.Protein, e.Protein)
			fresh, _ := Score(algo, q.Protein, e.Protein)
			if reused != fresh {
				t.Fatalf("%s vs entry %d: reused buffers scored %d, fresh %d", algo, i, reused, fresh)
			}
		}
	}
}

func BenchmarkHomologySearchSequential(b *testing.B) {
	db := NewDatabase(DefaultSize)
	e, _ := db.ByIndex(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := homologySearchSequential(db, e.Protein, AlgoSmithWaterman, 5); len(hits) != 5 {
			b.Fatal("bad hit count")
		}
	}
}

func BenchmarkHomologySearchSharded(b *testing.B) {
	db := NewDatabase(DefaultSize)
	e, _ := db.ByIndex(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := db.HomologySearch(e.Protein, AlgoSmithWaterman, 5); len(hits) != 5 {
			b.Fatal("bad hit count")
		}
	}
}
