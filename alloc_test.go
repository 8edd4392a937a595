package dexa

import (
	"testing"

	"dexa/internal/core"
	"dexa/internal/simulation"
)

// TestMemoizedSweepAllocatesNothing: once a CachedGenerator has seen the
// catalog, a repeat sweep over all 252 modules is pure cache hits and
// allocates nothing.
func TestMemoizedSweepAllocatesNothing(t *testing.T) {
	u := integrationUniverse(t)
	mods := catalogModules(u)
	cached := core.NewCachedGenerator(core.NewGenerator(u.Ont, u.Pool))
	sweep := func() {
		for _, m := range mods {
			if _, _, err := cached.Generate(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	if n := testing.AllocsPerRun(5, sweep); n != 0 {
		t.Errorf("memoized catalog sweep allocates %.0f, want 0", n)
	}
}

// TestWarmPartitionsAllocBudget: a warm Ontology.Partitions on the
// widest concept answers from the reachability cache with at most one
// allocation, the returned slice.
func TestWarmPartitionsAllocBudget(t *testing.T) {
	ont := simulation.BuildOntology()
	partitions := func() {
		if _, err := ont.Partitions(simulation.CBioRecord); err != nil {
			t.Fatal(err)
		}
	}
	partitions()
	if n := testing.AllocsPerRun(100, partitions); n > 1 {
		t.Errorf("warm Partitions allocates %.0f, want <= 1", n)
	}
}
