package match

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// TestIncrementalMatrixRandomHistory drives one IncrementalMatrix per
// worker width (0, 1 and 2) through seeded random histories and, after
// every step, demands that each builder's matrix equal the dense oracle
// over the same inputs. A step is one of: an annotation's content
// changes, an annotation is re-interned with the same content (a new
// pointer), an annotation vanishes or returns, a module leaves or
// rejoins the universe, a module is replaced by one with a new signature
// under the same ID, the index drops or re-adds a module, or the mode
// switches. The builders keep their state across steps, so the
// cells they copy instead of realigning are checked too; the test fails
// when no step copied any.
func TestIncrementalMatrixRandomHistory(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed + 2600))
		f := newFixture(t)
		n := 24 + r.Intn(16)
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
		reg := telemetry.NewRegistry()
		cmp := NewComparer(f.ont, nil)
		cmp.Index = NewCatalogIndex(f.ont, all)
		cmp.Metrics = reg
		indexed := make(map[string]bool, n)
		for _, m := range all {
			indexed[m.ID] = true
		}
		widths := []int{0, 1, 2}
		builders := make([]*IncrementalMatrix, len(widths))
		for i := range builders {
			builders[i] = NewIncrementalMatrix(cmp)
		}
		universe := append([]*module.Module{}, all...)
		check := func(step string) {
			t.Helper()
			want := DenseMatchMatrix(cmp, universe, src)
			for i, im := range builders {
				cmp.Workers = widths[i]
				got, err := im.Matrix(ctx, universe, src)
				if err != nil {
					t.Fatalf("seed %d %s (workers %d): %v", seed, step, widths[i], err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d after %s (%s, workers %d): matrix diverged from the dense oracle\n got %+v\nwant %+v",
						seed, step, cmp.Mode, widths[i], got, want)
				}
			}
		}
		check("initial build")
		for step := 0; step < 150; step++ {
			pick := all[r.Intn(n)]
			var op string
			switch k := r.Intn(10); {
			case k < 4:
				op = "content change"
				if set := raw[pick.ID]; len(set) > 1 {
					var sub dataexample.Set
					for _, e := range set {
						if r.Intn(3) > 0 {
							sub = append(sub, e)
						}
					}
					keyed[pick.ID] = sub.KeyedInterned(tab)
				}
			case k < 6:
				op = "same-content re-intern"
				if keyed[pick.ID] != nil {
					keyed[pick.ID] = keyed[pick.ID].Examples().KeyedInterned(tab)
				}
			case k == 6:
				op = "annotation vanishes or returns"
				if keyed[pick.ID] != nil {
					delete(keyed, pick.ID)
				} else {
					keyed[pick.ID] = raw[pick.ID].KeyedInterned(tab)
				}
			case k == 7:
				op = "module leaves or rejoins"
				at := -1
				for i, m := range universe {
					if m == pick {
						at = i
					}
				}
				if at >= 0 && len(universe) > 2 {
					universe = append(universe[:at:at], universe[at+1:]...)
				} else if at < 0 {
					universe = append(universe, pick)
				}
			case k == 8 && r.Intn(2) == 0:
				op = "signature change"
				// A new module under the same ID, keeping its stored
				// annotation; the index follows it, as it must.
				i := r.Intn(n)
				pick = randomModule(r, all[i].ID)
				for j, m := range universe {
					if m == all[i] {
						universe[j] = pick
					}
				}
				all[i] = pick
				if indexed[pick.ID] {
					cmp.Index.Update(pick)
				}
			case k == 8:
				op = "index flip"
				if indexed[pick.ID] {
					cmp.Index.Remove(pick.ID)
				} else {
					cmp.Index.Update(pick)
				}
				indexed[pick.ID] = !indexed[pick.ID]
			default:
				op = "mode switch"
				if cmp.Mode == ModeExact {
					cmp.Mode = ModeRelaxed
				} else {
					cmp.Mode = ModeExact
				}
			}
			check(fmt.Sprintf("step %d (%s on %s)", step, op, pick.ID))
		}
		if reused := reg.Counter("dexa_match_matrix_reused_pairs_total", "").Value(); reused == 0 {
			t.Errorf("seed %d: no rebuild copied a pair; the history never exercised reuse", seed)
		}
	}
}

// TestIncrementalMatrixConcurrentIndexFlips races Matrix calls on one
// shared IncrementalMatrix, from two goroutines, against the index
// Remove/Update flips that availability changes fire. Every call must
// equal the dense oracle at the pre-flip or the post-flip index state,
// whether it kept its plan or read a new one, and whatever state the
// other goroutine's call left behind (run under -race; the Makefile
// race-match target does).
func TestIncrementalMatrixConcurrentIndexFlips(t *testing.T) {
	f := newFixture(t)
	r := rand.New(rand.NewSource(26))
	mods := make([]*module.Module, 30)
	tab := dataexample.NewSymbolTable()
	keyed := map[string]*dataexample.KeyedSet{}
	for i := range mods {
		mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
		set, _, err := f.gen.Generate(mods[i])
		if err != nil {
			t.Fatal(err)
		}
		keyed[mods[i].ID] = set.KeyedInterned(tab)
	}
	src := func(id string) (*dataexample.KeyedSet, bool) {
		s, ok := keyed[id]
		return s, ok
	}
	cmp := NewComparer(f.ont, nil)
	cmp.Index = NewCatalogIndex(f.ont, mods)
	cmp.Workers = 2
	flip := mods[len(mods)/2]
	pre := DenseMatchMatrix(cmp, mods, src)
	cmp.Index.Remove(flip.ID)
	post := DenseMatchMatrix(cmp, mods, src)
	cmp.Index.Update(flip)
	if reflect.DeepEqual(pre, post) {
		t.Fatalf("unindexing %s changes nothing; the test is vacuous", flip.ID)
	}

	im := NewIncrementalMatrix(cmp)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				cmp.Index.Remove(flip.ID)
			} else {
				cmp.Index.Update(flip)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				got, err := im.Matrix(context.Background(), mods, src)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, pre) && !reflect.DeepEqual(got, post) {
					t.Errorf("build %d mixes two index states: %+v (pre-flip %+v, post-flip %+v)",
						i, got.Stats, pre.Stats, post.Stats)
					return
				}
			}
		}()
	}
	wg.Wait()
}
