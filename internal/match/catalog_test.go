package match_test

import (
	"context"
	"reflect"
	"runtime"
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
// test binary. The fixture is read-only; tests and benchmarks key their
// own copies.
func fullCatalog(t testing.TB) *catalog {
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
// 2000 allocations and 1 MiB.
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

	if raceEnabled {
		t.Skip("allocation counts and sizes differ under the race detector")
	}
	const matrixBytes, runs = 1 << 20, 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := cmp.MatchMatrixFromKeyedSets(ctx, c.mods, src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= matrixBytes {
		t.Errorf("warm indexed matrix allocates %d bytes per build, want < %d", per, matrixBytes)
	}
}

// raceEnabled is set in race builds, whose instrumentation changes
// allocation counts: budgets measured without it do not hold there.
var raceEnabled bool

// TestCatalogIndexedSubstitutesAllocBudget: an index-pruned substitute
// search over the full catalog stays at its measured allocation count.
func TestCatalogIndexedSubstitutesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := fullCatalog(t)
	const budget = 105
	target := match.Unavailable{Signature: c.target, Examples: c.sets[catalogTarget]}
	available := c.u.Registry.Available()
	cmp := match.NewComparer(c.u.Ont, nil)
	cmp.Workers, cmp.Index = 1, match.NewCatalogIndex(c.u.Ont, c.mods)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := cmp.FindSubstitutes(target, available); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Errorf("indexed substitute search allocates %.0f per search, want <= %d", n, budget)
	}
}

// TestCatalogIncrementalMatrixEqualsFull walks the matrix build through
// a fixed mutation script over the full catalog: a no-op rebuild, a
// content-identical re-interned set, a changed annotation, a shrunk
// universe, and an index Remove and Update of the target. After every
// step the build, in both modes and at worker widths 0, 1 and 2, and the
// IncrementalMatrix wrapper must equal the dense oracle over the same
// inputs.
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
		for _, mode := range modes {
			cmp.Mode = mode
			want := match.DenseMatchMatrix(cmp, mods, src)
			for _, workers := range []int{0, 1, 2} {
				cmp.Workers = workers
				got, err := cmp.MatchMatrixFromKeyedSets(ctx, mods, src)
				if err != nil {
					t.Fatalf("matrix (%s, %s, workers %d): %v", name, mode, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("matrix diverged from the dense oracle after %q (%s, workers %d)", name, mode, workers)
				}
			}
			if got, err := inc.Matrix(ctx, mods, src); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("IncrementalMatrix diverged from the dense oracle after %q (%s, err %v)", name, mode, err)
			}
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

// BenchmarkCompareSets measures one alignment of the target's set with
// itself under the identity mapping, the densest case: every example
// aligns and every output pair agrees. unkeyed keys both sets afresh for
// every comparison; keyed probes sets interned once through a reused
// scratch, the matrix sweep's per-cell path.
func BenchmarkCompareSets(b *testing.B) {
	c := fullCatalog(b)
	set := c.sets[catalogTarget]
	self, ok := match.MapParameters(c.u.Ont, c.target, c.target, match.ModeExact)
	if !ok {
		b.Fatal("no self-mapping")
	}
	b.Run("unkeyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := match.CompareKeyedSets(catalogTarget, catalogTarget, set.Keyed(), set.Keyed(), self); r.Verdict != match.Equivalent {
				b.Fatalf("self-comparison verdict %s", r.Verdict)
			}
		}
	})
	b.Run("keyed", func(b *testing.B) {
		keyed := set.KeyedInterned(dataexample.NewSymbolTable())
		var sc match.CompareScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := match.CompareKeyedSetsScratch(&sc, catalogTarget, catalogTarget, keyed, keyed, self); r.Verdict != match.Equivalent {
				b.Fatalf("self-comparison verdict %s", r.Verdict)
			}
		}
	})
}

// BenchmarkMatchMatrix measures the all-pairs matrix over the full
// catalog. cold keys and interns every set and tries a mapping for every
// ordered pair; warm is the serving steady state, with the signature
// index and interned sets built once; churn is warm with 5 annotations
// re-pointed to alternate interned sets before every build, as a
// /matches rebuild under steady writes sees them; incremental is churn
// through one IncrementalMatrix, which realigns only the pairs of the 5
// changed modules, as /matches does.
func BenchmarkMatchMatrix(b *testing.B) {
	c := fullCatalog(b)
	ctx := context.Background()
	tab := dataexample.NewSymbolTable()
	src := source(c.keyed(tab))
	b.Run("cold", func(b *testing.B) {
		cmp := match.NewComparer(c.u.Ont, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab := dataexample.NewSymbolTable()
			cold := func(id string) (*dataexample.KeyedSet, bool) {
				s, ok := c.sets[id]
				if !ok {
					return nil, false
				}
				return s.KeyedInterned(tab), true
			}
			if _, err := cmp.MatchMatrixFromKeyedSets(ctx, c.mods, cold); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := func() *match.Comparer {
		cmp := match.NewComparer(c.u.Ont, nil)
		cmp.Index = match.NewCatalogIndex(c.u.Ont, c.mods)
		return cmp
	}
	b.Run("warm", func(b *testing.B) {
		cmp := warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmp.MatchMatrixFromKeyedSets(ctx, c.mods, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	// churn re-points 5 annotations to alternate interned sets before
	// every build, as a /matches rebuild under steady writes sees them,
	// and builds through build.
	churn := func(b *testing.B, build func(src match.KeyedSource) error) {
		keyed := c.keyed(tab)
		// alt holds, per churned module, its full set and the set without
		// its last example, both interned once.
		var churned []string
		var alt [][2]*dataexample.KeyedSet
		for _, m := range c.mods {
			if set := c.sets[m.ID]; len(set) > 1 && len(churned) < 5 {
				churned = append(churned, m.ID)
				alt = append(alt, [2]*dataexample.KeyedSet{keyed[m.ID], set[:len(set)-1].KeyedInterned(tab)})
			}
		}
		if len(churned) < 5 {
			b.Fatalf("only %d modules with more than one example", len(churned))
		}
		src := source(keyed)
		if err := build(src); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, id := range churned {
				keyed[id] = alt[k][(i+1)%2]
			}
			if err := build(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("churn", func(b *testing.B) {
		cmp := warm()
		churn(b, func(src match.KeyedSource) error {
			_, err := cmp.MatchMatrixFromKeyedSets(ctx, c.mods, src)
			return err
		})
	})
	b.Run("incremental", func(b *testing.B) {
		im := match.NewIncrementalMatrix(warm())
		churn(b, func(src match.KeyedSource) error {
			_, err := im.Matrix(ctx, c.mods, src)
			return err
		})
	})
}
