package match

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// TestInternedComparisonMatchesOracle: over random catalogs whose sets
// include empty annotations and duplicate-input-key conflicts, the
// interned-ID alignment — shared table, private tables, and string-only
// keying, all through one reused scratch — must be byte-identical to
// the string-keyed oracle for every mappable ordered pair in both
// modes.
func TestInternedComparisonMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed + 900))
		f := newFixture(t)
		n := 5 + r.Intn(5)
		mods := make([]*module.Module, n)
		sets := make([]dataexample.Set, n)
		shared := dataexample.NewSymbolTable()
		sharedKeyed := make([]*dataexample.KeyedSet, n)
		privateKeyed := make([]*dataexample.KeyedSet, n)
		stringKeyed := make([]*dataexample.KeyedSet, n)
		for i := range mods {
			mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
			set, _, err := f.gen.Generate(mods[i])
			if err != nil {
				t.Fatalf("seed %d: generating: %v", seed, err)
			}
			switch r.Intn(5) {
			case 0: // empty annotation: every alignment is Incomparable
				set = nil
			case 1: // duplicate input key, conflicting outputs: first wins
				if len(set) > 1 {
					dup := set[0]
					dup.Outputs = set[1].Outputs
					set = append(set, dup)
				}
			}
			sets[i] = set
			sharedKeyed[i] = set.KeyedInterned(shared)
			privateKeyed[i] = set.KeyedInterned(dataexample.NewSymbolTable())
			stringKeyed[i] = set.Keyed()
		}
		var sc CompareScratch
		for _, mode := range []Mode{ModeExact, ModeRelaxed} {
			for i, tm := range mods {
				for j, cm := range mods {
					if i == j {
						continue
					}
					mapping, ok := MapParameters(f.ont, tm, cm, mode)
					if !ok {
						continue
					}
					want := CompareExampleSets(tm.ID, cm.ID, sets[i], sets[j], mapping)
					for _, v := range []struct {
						name string
						t, c *dataexample.KeyedSet
					}{
						{"shared-table", sharedKeyed[i], sharedKeyed[j]},
						{"private-tables", privateKeyed[i], privateKeyed[j]},
						{"string-only", stringKeyed[i], stringKeyed[j]},
					} {
						got := CompareKeyedSetsScratch(&sc, tm.ID, cm.ID, v.t, v.c, mapping)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d/%s/%s: %s -> %s diverged from oracle\n got %+v\nwant %+v",
								seed, mode, v.name, tm.ID, cm.ID, got, want)
						}
					}
					// The nil-scratch wrapper must agree too and own its map.
					got := CompareKeyedSets(tm.ID, cm.ID, sharedKeyed[i], sharedKeyed[j], mapping)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d/%s: CompareKeyedSets %s -> %s diverged from oracle", seed, mode, tm.ID, cm.ID)
					}
				}
			}
		}
	}
}

// TestCatalogIndexPairAgreesWithRow pins the index's row queries to the
// per-pair oracle: Feasibility must give every candidate exactly the
// verdict pairPrunes gives it, and the all-rows snapshot a matrix build
// reads must agree with Feasibility on every off-diagonal direction —
// for indexed and unindexed targets and candidates alike, in both modes.
func TestCatalogIndexPairAgreesWithRow(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed + 500))
		f := newFixture(t)
		n := 6 + r.Intn(8)
		mods := make([]*module.Module, n)
		for i := range mods {
			mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
		}
		ix := NewCatalogIndex(f.ont, mods)
		outsider := randomModule(r, "outsider") // never indexed
		all := append(append([]*module.Module{}, mods...), outsider)
		w := (len(all) + 63) / 64
		for _, mode := range []Mode{ModeExact, ModeRelaxed} {
			open, _ := ix.openRows(all, mode)
			for i, target := range all {
				feas := ix.Feasibility(target, mode)
				for j, cand := range all {
					if i == j {
						continue
					}
					row := feas.Prunes(cand.ID)
					if pair := pairPrunes(ix, target, cand, mode); row != pair {
						t.Errorf("seed %d/%s: %s -> %s row prune %v, pair prune %v",
							seed, mode, target.ID, cand.ID, row, pair)
					}
					if snap := !hasBit(open[i*w:], j); snap != row {
						t.Errorf("seed %d/%s: %s -> %s snapshot prune %v, row prune %v",
							seed, mode, target.ID, cand.ID, snap, row)
					}
				}
			}
		}
	}
}

// TestIncrementalMatrixEqualsFull drives random mutation sequences —
// annotation changes, content-identical re-interning, annotations
// vanishing and returning, modules leaving and rejoining the universe,
// index availability flips, and no-op steps — and after every one
// demands that the shipping build and the IncrementalMatrix wrapper each
// equal the dense oracle, in both modes and at worker widths 0, 1 and 2.
func TestIncrementalMatrixEqualsFull(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed + 100))
		f := newFixture(t)
		n := 5 + r.Intn(5)
		all := make([]*module.Module, n)
		tab := dataexample.NewSymbolTable()
		raw := make(map[string]dataexample.Set, n)
		keyed := make(map[string]*dataexample.KeyedSet, n)
		for i := range all {
			all[i] = randomModule(r, fmt.Sprintf("m%02d", i))
			set, _, err := f.gen.Generate(all[i])
			if err != nil {
				t.Fatalf("seed %d: generating: %v", seed, err)
			}
			raw[all[i].ID] = set
			keyed[all[i].ID] = set.KeyedInterned(tab)
		}
		src := func(id string) (*dataexample.KeyedSet, bool) {
			s, ok := keyed[id]
			return s, ok
		}
		cmp := NewComparer(f.ont, nil)
		cmp.Index = NewCatalogIndex(f.ont, all)
		indexed := make(map[string]bool, n)
		for _, m := range all {
			indexed[m.ID] = true
		}
		inc := NewIncrementalMatrix(cmp)
		universe := append([]*module.Module{}, all...)
		ctx := context.Background()
		check := func(step string) {
			t.Helper()
			for _, mode := range []Mode{ModeExact, ModeRelaxed} {
				cmp.Mode = mode
				want := DenseMatchMatrix(cmp, universe, src)
				for _, workers := range []int{0, 1, 2} {
					cmp.Workers = workers
					got, err := cmp.MatchMatrixFromKeyedSets(ctx, universe, src)
					if err != nil {
						t.Fatalf("seed %d %s: build: %v", seed, step, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d after %s (%s, workers %d): matrix diverged from the dense oracle\n got %+v\nwant %+v",
							seed, step, mode, workers, got, want)
					}
					if got, err = inc.Matrix(ctx, universe, src); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d after %s (%s, workers %d): IncrementalMatrix diverged from the dense oracle (err %v)",
							seed, step, mode, workers, err)
					}
				}
			}
		}
		check("initial build")
		for step := 0; step < 14; step++ {
			pick := all[r.Intn(n)]
			op := r.Intn(7)
			switch op {
			case 0: // annotation content change (shrink, or restore the original)
				if set := raw[pick.ID]; keyed[pick.ID] != nil && len(set) > 1 && keyed[pick.ID].Len() == len(set) {
					keyed[pick.ID] = set[:len(set)-1].KeyedInterned(tab)
				} else {
					keyed[pick.ID] = raw[pick.ID].KeyedInterned(tab)
				}
			case 1: // fresh pointer, identical content: same cells
				if keyed[pick.ID] != nil {
					keyed[pick.ID] = keyed[pick.ID].Examples().KeyedInterned(tab)
				}
			case 2: // annotation vanishes / returns
				if keyed[pick.ID] != nil {
					delete(keyed, pick.ID)
				} else {
					keyed[pick.ID] = raw[pick.ID].KeyedInterned(tab)
				}
			case 3: // module leaves / rejoins the universe
				at := -1
				for i, m := range universe {
					if m == pick {
						at = i
						break
					}
				}
				if at >= 0 && len(universe) > 2 {
					universe = append(universe[:at:at], universe[at+1:]...)
				} else if at < 0 {
					universe = append(universe, pick)
				}
			case 4: // index availability flip
				if indexed[pick.ID] {
					cmp.Index.Remove(pick.ID)
				} else {
					cmp.Index.Update(pick)
				}
				indexed[pick.ID] = !indexed[pick.ID]
			case 5, 6: // nothing changed
			}
			check(fmt.Sprintf("step %d (op %d on %s)", step, op, pick.ID))
		}
	}
}
