package bio

import (
	"runtime"
	"sort"
	"sync"
)

// Hit is one homology-search result.
type Hit struct {
	Accession string
	Score     int
}

// better is the total order hits are ranked by: score descending, ties
// broken by accession. Accessions are unique per entry, so the order is
// strict — which is what makes the sharded search byte-identical to the
// sequential scan regardless of how entries are split across shards.
func better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Accession < b.Accession
}

// HomologySearch ranks all database proteins against the query sequence
// with the named alignment algorithm and returns the top k hits (ties
// broken by accession). The algorithm genuinely changes the ranking, so
// services wrapping different algorithms return different results for the
// same query — the Example-4 situation.
//
// The scan is sharded across up to GOMAXPROCS goroutines, each keeping
// only a top-k heap and reusing its alignment DP rows across entries; the
// merged result is byte-identical to a full sort of every score (see the
// golden test). Databases are immutable after construction, so
// concurrent searches are safe.
func (db *Database) HomologySearch(query, algo string, k int) []Hit {
	if k <= 0 || !ValidAlgorithm(algo) {
		return nil
	}
	n := len(db.entries)
	shards := max(1, min(runtime.GOMAXPROCS(0), (n+topkMinShardSize-1)/topkMinShardSize))

	perShard := make([][]Hit, shards)
	scan := func(w int) {
		var al aligner
		top := newTopK(k)
		for _, e := range db.entries[n*w/shards : n*(w+1)/shards] {
			s, _ := al.score(algo, query, e.Protein)
			top.offer(Hit{Accession: e.Accession, Score: s})
		}
		perShard[w] = top.drain()
	}
	if shards == 1 {
		scan(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				scan(w)
			}(w)
		}
		wg.Wait()
	}

	merged := make([]Hit, 0, shards*k)
	for _, hs := range perShard {
		merged = append(merged, hs...)
	}
	sort.Slice(merged, func(i, j int) bool { return better(merged[i], merged[j]) })
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// topkMinShardSize keeps shards from degenerating into per-goroutine
// work smaller than the cost of spawning the goroutine.
const topkMinShardSize = 16

// topK is a bounded min-heap: the root is the *worst* kept hit, so a new
// hit displaces the root exactly when it ranks higher under better().
type topK struct {
	k    int
	hits []Hit
}

func newTopK(k int) *topK { return &topK{k: k, hits: make([]Hit, 0, k)} }

// offer inserts the hit if it belongs in the current top k.
func (t *topK) offer(h Hit) {
	if len(t.hits) < t.k {
		t.hits = append(t.hits, h)
		// Sift up.
		for i := len(t.hits) - 1; i > 0; {
			parent := (i - 1) / 2
			if !better(t.hits[parent], t.hits[i]) {
				break
			}
			t.hits[parent], t.hits[i] = t.hits[i], t.hits[parent]
			i = parent
		}
		return
	}
	if !better(h, t.hits[0]) {
		return
	}
	// Replace the worst kept hit and sift down.
	t.hits[0] = h
	for i := 0; ; {
		worst := i
		if l := 2*i + 1; l < len(t.hits) && better(t.hits[worst], t.hits[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(t.hits) && better(t.hits[worst], t.hits[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.hits[i], t.hits[worst] = t.hits[worst], t.hits[i]
		i = worst
	}
}

// drain returns the kept hits in arbitrary order (the merge sorts).
func (t *topK) drain() []Hit { return t.hits }
