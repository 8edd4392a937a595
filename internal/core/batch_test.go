package core

import (
	"strings"
	"testing"

	"dexa/internal/module"
)

func TestGenerateAll(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)

	mods := []*module.Module{
		f.getAccession(),
		f.getAccession(), // duplicate behaviour under a different ID
		f.getAccession(), // a failing module
	}
	mods[0].ID = "c-module"
	mods[1].ID = "a-module"
	mods[2].ID = "b-broken"
	mods[2].Inputs[0].Semantic = "" // unannotated: generation fails

	results := (&SweepGenerator{Gen: g, Workers: 4}).Sweep(mods)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	// Ordered by module ID.
	if results[0].ModuleID != "a-module" || results[1].ModuleID != "b-broken" || results[2].ModuleID != "c-module" {
		t.Errorf("order = %s, %s, %s", results[0].ModuleID, results[1].ModuleID, results[2].ModuleID)
	}
	if results[0].Err != nil || len(results[0].Examples) != 5 {
		t.Errorf("a-module: %v, %d examples", results[0].Err, len(results[0].Examples))
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "no semantic annotation") {
		t.Errorf("b-broken should fail with annotation error, got %v", results[1].Err)
	}
	if results[2].Report == nil || results[2].Report.InputCoverage() != 1 {
		t.Errorf("c-module report = %+v", results[2].Report)
	}
}

func TestGenerateAllMatchesSequential(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	var mods []*module.Module
	for i := 0; i < 12; i++ {
		m := f.getAccession()
		m.ID = string(rune('a'+i)) + "-mod"
		mods = append(mods, m)
	}
	parallel := (&SweepGenerator{Gen: g, Workers: 5}).Sweep(mods)
	for i, m := range mods {
		want, _, err := g.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		got := parallel[i]
		if got.ModuleID != m.ID {
			// results are sorted; find it
			for _, r := range parallel {
				if r.ModuleID == m.ID {
					got = r
				}
			}
		}
		if len(got.Examples) != len(want) {
			t.Fatalf("module %s: %d vs %d examples", m.ID, len(got.Examples), len(want))
		}
		for j := range want {
			if !got.Examples[j].Equal(want[j]) {
				t.Errorf("module %s example %d differs between batch and sequential", m.ID, j)
			}
		}
	}
}

func TestGenerateAllDefaults(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	if got := (&SweepGenerator{Gen: g}).Sweep(nil); len(got) != 0 {
		t.Errorf("empty batch = %v", got)
	}
	one := (&SweepGenerator{Gen: g, Workers: -3}).Sweep([]*module.Module{f.getAccession()})
	if len(one) != 1 || one[0].Err != nil {
		t.Errorf("single batch = %+v", one)
	}
}
