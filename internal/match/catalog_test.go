package match_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/simulation"
)

// The tests in this file run over the full 252-module experimental
// universe. It holds mapping, pruning and alignment shapes that the
// small random catalogs of the package-internal tests never produce, so
// every oracle equality is also checked at catalog scale.

// catalogTarget is the unavailable module whose substitutes the catalog
// tests search for.
const catalogTarget = "getUniprotRecord"

type catalog struct {
	u      *simulation.Universe
	mods   []*module.Module
	sets   map[string]dataexample.Set // modules with a non-empty annotation
	target *module.Module
}

var (
	catalogOnce sync.Once
	catalogFix  *catalog
)

// fullCatalog builds the universe and annotates every module once per
// test binary. The fixture is read-only; tests key their own copies.
func fullCatalog(t *testing.T) *catalog {
	t.Helper()
	catalogOnce.Do(func() {
		u := simulation.NewUniverse()
		c := &catalog{u: u, sets: map[string]dataexample.Set{}}
		for _, e := range u.Catalog.Entries {
			c.mods = append(c.mods, e.Module)
			if s, _, err := u.Gen.Generate(e.Module); err == nil && len(s) > 0 {
				c.sets[e.Module.ID] = s
			}
		}
		if e, ok := u.Catalog.Get(catalogTarget); ok {
			c.target = e.Module
		}
		catalogFix = c
	})
	c := catalogFix
	if c.target == nil || len(c.sets[catalogTarget]) == 0 {
		t.Fatalf("%s missing or unannotated in the catalog", catalogTarget)
	}
	return c
}

// keyed interns every annotation into tab.
func (c *catalog) keyed(tab *dataexample.SymbolTable) map[string]*dataexample.KeyedSet {
	out := make(map[string]*dataexample.KeyedSet, len(c.sets))
	for id, s := range c.sets {
		out[id] = s.KeyedInterned(tab)
	}
	return out
}

func source(keyed map[string]*dataexample.KeyedSet) match.KeyedSource {
	return func(id string) (*dataexample.KeyedSet, bool) {
		s, ok := keyed[id]
		return s, ok
	}
}

var modes = []match.Mode{match.ModeExact, match.ModeRelaxed}

// TestCatalogIndexedSubstitutesMatchExhaustive: over the full catalog, the
// index-pruned substitute search returns exactly the exhaustive result in
// both modes. The index never prunes a mappable candidate, and in exact
// mode it prunes every mapping-infeasible one.
func TestCatalogIndexedSubstitutesMatchExhaustive(t *testing.T) {
	c := fullCatalog(t)
	target := match.Unavailable{Signature: c.target, Examples: c.sets[catalogTarget]}
	available := c.u.Registry.Available()
	ix := match.NewCatalogIndex(c.u.Ont, c.mods)
	for _, mode := range modes {
		seq := match.NewComparer(c.u.Ont, nil)
		seq.Mode, seq.Workers = mode, 1
		want, err := seq.FindSubstitutes(target, available)
		if err != nil {
			t.Fatalf("%s exhaustive search: %v", mode, err)
		}
		idx := match.NewComparer(c.u.Ont, nil)
		idx.Mode, idx.Index = mode, ix
		got, err := idx.FindSubstitutes(target, available)
		if err != nil {
			t.Fatalf("%s indexed search: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: indexed search diverged from the exhaustive search", mode)
		}

		feas := ix.Feasibility(c.target, mode)
		infeasible := 0
		for _, m := range c.mods {
			if m.ID == c.target.ID {
				continue
			}
			_, mappable := match.MapParameters(c.u.Ont, c.target, m, mode)
			if !mappable {
				infeasible++
			} else if feas.Prunes(m.ID) {
				t.Errorf("%s: unsound prune of mappable candidate %s", mode, m.ID)
			}
		}
		if infeasible == 0 {
			t.Fatalf("%s: no mapping-infeasible candidates; the prune check is vacuous", mode)
		}
		if mode == match.ModeExact && feas.Pruned != infeasible {
			t.Errorf("exact mode pruned %d of %d mapping-infeasible candidates", feas.Pruned, infeasible)
		}
	}
}

// TestCatalogIndexedMatrixMatchesSequential: the indexed matrix at the
// default worker width equals the plain sequential sweep over the full
// catalog.
func TestCatalogIndexedMatrixMatchesSequential(t *testing.T) {
	c := fullCatalog(t)
	src := source(c.keyed(dataexample.NewSymbolTable()))
	ctx := context.Background()
	plain := match.NewComparer(c.u.Ont, nil)
	plain.Workers = 1
	want, err := plain.MatchMatrixFromKeyedSets(ctx, c.mods, src)
	if err != nil {
		t.Fatal(err)
	}
	fast := match.NewComparer(c.u.Ont, nil)
	fast.Index = match.NewCatalogIndex(c.u.Ont, c.mods)
	got, err := fast.MatchMatrixFromKeyedSets(ctx, c.mods, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Cells) == 0 || got.Stats.Pruned == 0 {
		t.Fatalf("vacuous matrix: %d cells, %d pairs pruned", len(want.Cells), got.Stats.Pruned)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) ||
		!reflect.DeepEqual(got.Modules, want.Modules) ||
		!reflect.DeepEqual(got.Missing, want.Missing) {
		t.Error("indexed sharded matrix diverged from the sequential sweep")
	}
}

// TestCatalogInternedAlignmentMatchesOracle: for every mappable ordered
// pair of the full catalog, in both modes, the interned-ID alignment
// equals the string-keyed oracle. One scratch serves every comparison,
// so stale scratch state would show up as a divergence too.
func TestCatalogInternedAlignmentMatchesOracle(t *testing.T) {
	c := fullCatalog(t)
	keyed := c.keyed(dataexample.NewSymbolTable())
	var sc match.CompareScratch
	for _, mode := range modes {
		pairs := 0
		for _, tm := range c.mods {
			for _, cm := range c.mods {
				if tm.ID == cm.ID || keyed[tm.ID] == nil || keyed[cm.ID] == nil {
					continue
				}
				mapping, ok := match.MapParameters(c.u.Ont, tm, cm, mode)
				if !ok {
					continue
				}
				pairs++
				want := match.CompareExampleSets(tm.ID, cm.ID, c.sets[tm.ID], c.sets[cm.ID], mapping)
				got := match.CompareKeyedSetsScratch(&sc, tm.ID, cm.ID, keyed[tm.ID], keyed[cm.ID], mapping)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s -> %s diverged from the oracle\n got %+v\nwant %+v", mode, tm.ID, cm.ID, got, want)
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no mappable pairs", mode)
		}
	}
}

// TestCatalogScratchAllocBudgets pins the allocation budgets of the
// scratch-driven hot paths: the keyed self-comparison allocates nothing,
// and a warm indexed matrix build over the full catalog stays under
// 2000 allocations.
func TestCatalogScratchAllocBudgets(t *testing.T) {
	c := fullCatalog(t)
	keyed := c.keyed(dataexample.NewSymbolTable())
	self := keyed[catalogTarget]
	mapping, ok := match.MapParameters(c.u.Ont, c.target, c.target, match.ModeExact)
	if !ok {
		t.Fatal("no self-mapping")
	}
	var sc match.CompareScratch
	if n := testing.AllocsPerRun(100, func() {
		if r := match.CompareKeyedSetsScratch(&sc, catalogTarget, catalogTarget, self, self, mapping); r.Verdict != match.Equivalent {
			t.Fatalf("self-comparison verdict %s", r.Verdict)
		}
	}); n != 0 {
		t.Errorf("keyed scratch comparison allocates %.0f per call, want 0", n)
	}

	const matrixBudget = 2000
	cmp := match.NewComparer(c.u.Ont, nil)
	cmp.Index = match.NewCatalogIndex(c.u.Ont, c.mods)
	src := source(keyed)
	ctx := context.Background()
	if n := testing.AllocsPerRun(3, func() {
		if _, err := cmp.MatchMatrixFromKeyedSets(ctx, c.mods, src); err != nil {
			t.Fatal(err)
		}
	}); n >= matrixBudget {
		t.Errorf("warm indexed matrix allocates %.0f per build, want < %d", n, matrixBudget)
	}
}

// TestCatalogIncrementalMatrixEqualsFull walks the incremental matrix
// through a fixed mutation script over the full catalog: a no-op
// rebuild, a content-identical re-interned set, a changed annotation, a
// shrunk universe, and an index Remove and Update of the target. After
// every step it must equal a full build over the same inputs.
func TestCatalogIncrementalMatrixEqualsFull(t *testing.T) {
	c := fullCatalog(t)
	tab := dataexample.NewSymbolTable()
	keyed := c.keyed(tab)
	src := source(keyed)
	ctx := context.Background()
	ix := match.NewCatalogIndex(c.u.Ont, c.mods)
	cmp := match.NewComparer(c.u.Ont, nil)
	cmp.Index = ix
	inc := match.NewIncrementalMatrix(cmp)
	step := func(name string, mods []*module.Module) {
		t.Helper()
		got, err := inc.Matrix(ctx, mods, src)
		if err != nil {
			t.Fatalf("incremental matrix (%s): %v", name, err)
		}
		want, err := cmp.MatchMatrixFromKeyedSets(ctx, mods, src)
		if err != nil {
			t.Fatalf("full matrix (%s): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("incremental matrix diverged from the full build after %q", name)
		}
	}
	step("initial build", c.mods)
	step("no change", c.mods)
	var mut string
	for _, m := range c.mods {
		if m.ID != catalogTarget && len(c.sets[m.ID]) > 1 {
			mut = m.ID
			break
		}
	}
	if mut == "" {
		t.Fatal("no module with more than one example to mutate")
	}
	keyed[mut] = c.sets[mut].KeyedInterned(tab)
	step("re-interned set, same content", c.mods)
	keyed[mut] = c.sets[mut][:len(c.sets[mut])-1].KeyedInterned(tab)
	step("changed annotation", c.mods)
	step("removed module", c.mods[1:])
	ix.Remove(catalogTarget)
	step("index remove", c.mods)
	ix.Update(c.target)
	step("index update", c.mods)
}
