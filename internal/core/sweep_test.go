package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

func sweepCatalog(t testing.TB, n int) (*Generator, []*module.Module) {
	t.Helper()
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	mods := make([]*module.Module, n)
	for i := range mods {
		m := f.getAccession()
		m.ID = fmt.Sprintf("mod-%02d", i)
		mods[i] = m
	}
	return g, mods
}

// TestSweepMatchesSequentialByteIdentical is the golden determinism test:
// a sweep at any worker count must produce exactly the result a plain
// sequential loop produces — same order, same examples, same reports.
func TestSweepMatchesSequentialByteIdentical(t *testing.T) {
	g, mods := sweepCatalog(t, 17)
	sequential := make([]BatchResult, len(mods))
	for i, m := range mods {
		set, rep, err := g.Generate(m)
		sequential[i] = BatchResult{ModuleID: m.ID, Examples: set, Report: rep, Err: err}
	}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := (&SweepGenerator{Gen: g, Workers: workers}).Sweep(mods)
		if !reflect.DeepEqual(got, sequential) {
			t.Errorf("workers=%d: sweep result differs from sequential run", workers)
		}
	}
}

func TestSweepEmptyAndOversubscribed(t *testing.T) {
	g, mods := sweepCatalog(t, 2)
	s := &SweepGenerator{Gen: g, Workers: 16}
	if got := s.Sweep(nil); len(got) != 0 {
		t.Errorf("empty sweep = %v", got)
	}
	if got := s.Sweep(mods); len(got) != 2 {
		t.Errorf("oversubscribed sweep = %d results", len(got))
	}
}

// TestTransientRetriesSentinel pins the pointer-sentinel semantics: nil
// means the default budget, Retries(0) means exactly zero, negatives clamp.
func TestTransientRetriesSentinel(t *testing.T) {
	g := &Generator{}
	if got := g.transientRetries(); got != DefaultTransientRetries {
		t.Errorf("nil sentinel: retries = %d, want default %d", got, DefaultTransientRetries)
	}
	g.TransientRetries = Retries(0)
	if got := g.transientRetries(); got != 0 {
		t.Errorf("Retries(0): retries = %d, want 0", got)
	}
	g.TransientRetries = Retries(7)
	if got := g.transientRetries(); got != 7 {
		t.Errorf("Retries(7): retries = %d, want 7", got)
	}
	g.TransientRetries = Retries(-3)
	if got := g.transientRetries(); got != 0 {
		t.Errorf("Retries(-3): retries = %d, want 0 (clamped)", got)
	}
}

func TestCachedGeneratorMemoizes(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	m := f.getAccession()
	calls := 0
	inner := execOf(m)
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		calls++
		return inner.Invoke(in)
	}))

	c := NewCachedGenerator(g)
	set1, rep1, err := c.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	invocations := calls
	set2, rep2, err := c.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if calls != invocations {
		t.Errorf("second Generate re-invoked the module: %d -> %d calls", invocations, calls)
	}
	if &set1[0] != &set2[0] || rep1 != rep2 {
		t.Error("cached Generate must return the memoized result itself")
	}
	if len(c.entries) != 1 {
		t.Errorf("cache length = %d, want 1", len(c.entries))
	}
}

// TestCachedGeneratorConcurrent hammers one cache from many goroutines
// starting cold; with -race this backs the concurrency contract, and the
// call counter proves the per-entry once collapsed all first requests
// into a single generation per module.
func TestCachedGeneratorConcurrent(t *testing.T) {
	g, mods := sweepCatalog(t, 4)
	c := NewCachedGenerator(g)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m := mods[(w+i)%len(mods)]
				set, _, err := c.Generate(m)
				if err != nil || len(set) == 0 {
					t.Errorf("cached Generate(%s): %d examples, %v", m.ID, len(set), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.entries) != len(mods) {
		t.Errorf("cache length = %d, want %d", len(c.entries), len(mods))
	}
}

// BenchmarkGenerateSingleModule tracks the per-generation allocation
// budget of the hot combination loop (run with -benchmem; ReportAllocs is
// set so the figure appears even without the flag).
func BenchmarkGenerateSingleModule(b *testing.B) {
	f := newFixture(b)
	g := NewGenerator(f.ont, f.pool)
	m := f.getAccession()
	if _, _, err := g.Generate(m); err != nil { // warm the ontology cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Generate(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep measures the worker-pool catalog sweep end to end.
func BenchmarkSweep(b *testing.B) {
	g, mods := sweepCatalog(b, 24)
	s := &SweepGenerator{Gen: g}
	s.Sweep(mods) // warm caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sweep(mods)
	}
}

// countingGen is a minimal non-*Generator ExampleGenerator: the sweep
// must accept any implementation of the interface (store-backed sources,
// caches), not just the concrete heuristic generator.
type countingGen struct {
	mu   sync.Mutex
	runs map[string]int
}

func (c *countingGen) Generate(m *module.Module) (dataexample.Set, *Report, error) {
	c.mu.Lock()
	c.runs[m.ID]++
	c.mu.Unlock()
	return dataexample.Set{{
		Inputs:  map[string]typesys.Value{"in": typesys.Str(m.ID)},
		Outputs: map[string]typesys.Value{"out": typesys.Str("v")},
	}}, &Report{ModuleID: m.ID}, nil
}

func TestSweepAcceptsAnyExampleGenerator(t *testing.T) {
	mods := make([]*module.Module, 9)
	for i := range mods {
		mods[i] = &module.Module{ID: fmt.Sprintf("m%d", i)}
	}
	cg := &countingGen{runs: map[string]int{}}
	results := (&SweepGenerator{Gen: cg, Workers: 4}).Sweep(mods)
	if len(results) != len(mods) {
		t.Fatalf("got %d results, want %d", len(results), len(mods))
	}
	for i, r := range results {
		if r.ModuleID != mods[i].ID || r.Err != nil || len(r.Examples) != 1 {
			t.Errorf("result %d = %+v", i, r)
		}
		if cg.runs[r.ModuleID] != 1 {
			t.Errorf("%s generated %d times, want 1", r.ModuleID, cg.runs[r.ModuleID])
		}
	}
}
