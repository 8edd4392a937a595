package match

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"testing"

	"dexa/internal/dataexample"
)

// keyedSource serves a plain set map as a KeyedSource, interning every
// set into one symbol table on first use.
func keyedSource(sets map[string]dataexample.Set) KeyedSource {
	tab := dataexample.NewSymbolTable()
	keyed := map[string]*dataexample.KeyedSet{}
	return func(id string) (*dataexample.KeyedSet, bool) {
		set, ok := sets[id]
		if !ok {
			return nil, false
		}
		ks, ok := keyed[id]
		if !ok {
			ks = set.KeyedInterned(tab)
			keyed[id] = ks
		}
		return ks, true
	}
}

// TestMatrixSliceMergeEqualsOracle: splitting the sweep into per-shard
// slices and merging must reproduce the single-node matrix byte for byte
// — at every shard count, worker width, mode, and with and without the
// index.
func TestMatrixSliceMergeEqualsOracle(t *testing.T) {
	f, mods, sets := matrixWorld(t)
	for _, mode := range []Mode{ModeExact, ModeRelaxed} {
		for _, indexed := range []bool{false, true} {
			f.cmp.Mode = mode
			f.cmp.Index = nil
			if indexed {
				f.cmp.Index = NewCatalogIndex(f.ont, mods)
			}
			f.cmp.Workers = 1
			oracle, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyedSource(sets))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(oracle)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 5} {
				for _, workers := range []int{1, 4} {
					f.cmp.Workers = workers
					source := keyedSource(sets)
					slices := make([]*MatchMatrix, shards)
					for sh := 0; sh < shards; sh++ {
						owner := func(id string) bool {
							h := fnv.New32a()
							h.Write([]byte(id))
							return int(h.Sum32())%shards == sh
						}
						sl, err := f.cmp.MatchMatrixSlice(context.Background(), mods, source, owner)
						if err != nil {
							t.Fatal(err)
						}
						slices[sh] = sl
					}
					got, err := json.Marshal(MergeMatrixSlices(slices))
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Errorf("%s/indexed=%v/shards=%d/workers=%d: merged slices diverged from oracle\n got %s\nwant %s",
							mode, indexed, shards, workers, got, want)
					}
				}
			}
		}
	}
}

// TestMatrixSliceStatsPartition: each unordered pair is owned by exactly
// one slice, so no cell appears twice and empty assignments yield empty
// slices, not errors.
func TestMatrixSliceStatsPartition(t *testing.T) {
	f, mods, sets := matrixWorld(t)
	f.cmp.Index = NewCatalogIndex(f.ont, mods)
	f.cmp.Workers = 2

	none, err := f.cmp.MatchMatrixSlice(context.Background(), mods, keyedSource(sets), func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Cells) != 0 || none.Stats.Pairs != 0 || none.Stats.Compared != 0 {
		t.Errorf("empty assignment produced work: %+v", none.Stats)
	}
	if none.Stats.Modules == 0 {
		t.Error("slice lost the universe size")
	}

	all, err := f.cmp.MatchMatrixSlice(context.Background(), mods, keyedSource(sets), func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n := all.Stats.Modules; all.Stats.Pairs != n*(n-1) {
		t.Errorf("full assignment covers %d pairs, want %d", all.Stats.Pairs, n*(n-1))
	}
	seen := map[[2]string]bool{}
	for _, c := range all.Cells {
		k := [2]string{c.Target, c.Candidate}
		if seen[k] {
			t.Fatalf("cell %v emitted twice", k)
		}
		seen[k] = true
	}
}
