package match

import (
	"fmt"
	"sync"
	"testing"

	"dexa/internal/module"
	"dexa/internal/typesys"
)

// indexCatalog builds a candidate field covering every way a signature
// can (fail to) admit a mapping: equivalent, renamed, narrowed concept,
// wrong struct, extra required/optional inputs, wrong/extra outputs, and
// an unknown concept.
func indexCatalog() (target *module.Module, cands []*module.Module) {
	target = seqModule("target", prefixer("X:"))
	same := seqModule("same", prefixer("X:"))
	renamed := seqModule("renamed", prefixer("X:"))
	renamed.Inputs[0].Name = "sequence"
	narrower := seqModule("narrower", prefixer("X:"))
	narrower.Inputs[0].Semantic = "DNA" // subconcept input: no mapping in either mode
	wrongStruct := seqModule("wrong-struct", prefixer("X:"))
	wrongStruct.Inputs[0].Struct = typesys.IntType
	extraRequired := seqModule("extra-required", prefixer("X:"))
	extraRequired.Inputs = append(extraRequired.Inputs, module.Parameter{
		Name: "extra", Struct: typesys.StringType, Semantic: "Acc",
	})
	extraOptional := seqModule("extra-optional", prefixer("X:"))
	extraOptional.Inputs = append(extraOptional.Inputs, module.Parameter{
		Name: "limit", Struct: typesys.FloatType, Semantic: "Data", Optional: true, Default: typesys.Floatv(1),
	})
	wrongOutput := seqModule("wrong-output", prefixer("X:"))
	wrongOutput.Outputs[0].Semantic = "Seq" // subsumption holds in relaxed mode
	extraOutput := seqModule("extra-output", prefixer("X:"))
	extraOutput.Outputs = append(extraOutput.Outputs, module.Parameter{
		Name: "extra", Struct: typesys.StringType, Semantic: "Acc",
	})
	unknown := seqModule("unknown-concept", prefixer("X:"))
	unknown.Inputs[0].Semantic = "NotInOntology"
	cands = []*module.Module{
		same, renamed, narrower, wrongStruct, extraRequired,
		extraOptional, wrongOutput, extraOutput, unknown,
	}
	return target, cands
}

// TestCatalogIndexFeasibility pins the pruning contract: in both modes a
// prune is sound (a mapping-feasible candidate is never pruned), and in
// exact mode it is also complete (every mapping-infeasible candidate IS
// pruned — the per-fingerprint-class counting is a decision procedure
// there, which is what lets the bench gate assert prune counts).
func TestCatalogIndexFeasibility(t *testing.T) {
	f := newFixture(t)
	target, cands := indexCatalog()
	ix := NewCatalogIndex(f.ont, append([]*module.Module{target}, cands...))
	for _, mode := range []Mode{ModeExact, ModeRelaxed} {
		feas := ix.Feasibility(target, mode)
		for _, c := range cands {
			_, mappable := MapParameters(f.ont, target, c, mode)
			if mappable && feas.Prunes(c.ID) {
				t.Errorf("%s/%s: pruned a mapping-feasible candidate (unsound)", mode, c.ID)
			}
			if mode == ModeExact && !mappable && !feas.Prunes(c.ID) {
				t.Errorf("exact/%s: mapping-infeasible candidate not pruned (incomplete)", c.ID)
			}
		}
		if feas.Candidates != len(cands) {
			t.Errorf("%s: candidates = %d, want %d", mode, feas.Candidates, len(cands))
		}
		if feas.Prunes(target.ID) {
			t.Errorf("%s: the target itself must not be reported pruned", mode)
		}
	}
	// Unindexed modules are never pruned: the comparison falls through.
	feas := ix.Feasibility(target, ModeExact)
	if feas.Prunes("never-indexed") {
		t.Error("unindexed module must not be pruned")
	}
	// A nil Feasibility (no index wired) prunes nothing.
	if (*Feasibility)(nil).Prunes("anything") {
		t.Error("nil feasibility must not prune")
	}
}

// TestCatalogIndexInvalidation: Update after a signature change and
// Remove must be visible to the next query, and each rebuild bumps the
// generation (the serving layer folds it into its cache state key).
func TestCatalogIndexInvalidation(t *testing.T) {
	f := newFixture(t)
	target := seqModule("target", prefixer("X:"))
	cand := seqModule("cand", prefixer("X:"))
	ix := NewCatalogIndex(f.ont, []*module.Module{target, cand})
	gen0 := ix.Generation()

	if ix.Feasibility(target, ModeExact).Prunes("cand") {
		t.Fatal("identical signature pruned")
	}

	// The candidate's signature changes incompatibly; re-indexing must
	// flip it to pruned and advance the generation.
	cand.Inputs[0].Semantic = "Acc"
	ix.Update(cand)
	if ix.Generation() == gen0 {
		t.Error("generation did not advance on Update")
	}
	if !ix.Feasibility(target, ModeExact).Prunes("cand") {
		t.Error("stale feasibility after signature change")
	}

	ix.Remove("cand")
	if got := ix.Len(); got != 1 {
		t.Errorf("len after remove = %d, want 1", got)
	}
	if ix.Feasibility(target, ModeExact).Prunes("cand") {
		t.Error("removed module must fall back to unpruned")
	}
	ids := ix.IDs()
	if len(ids) != 1 || ids[0] != "target" {
		t.Errorf("ids = %v", ids)
	}
}

// TestCatalogIndexConcurrentReadsDuringInvalidation hammers Feasibility
// from many readers while a writer continuously rebuilds the index (run
// under -race; the Makefile race-match target does).
func TestCatalogIndexConcurrentReadsDuringInvalidation(t *testing.T) {
	f := newFixture(t)
	target, cands := indexCatalog()
	mods := append([]*module.Module{target}, cands...)
	ix := NewCatalogIndex(f.ont, mods)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: churn signatures, removals and re-adds
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := seqModule(fmt.Sprintf("churn-%d", i%7), prefixer("X:"))
			if i%3 == 0 {
				m.Inputs[0].Semantic = "DNA"
			}
			ix.Update(m)
			if i%5 == 0 {
				ix.Remove(fmt.Sprintf("churn-%d", (i+3)%7))
			}
		}
	}()
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				feas := ix.Feasibility(target, Mode(i%2))
				// Whatever snapshot we read, pruning must stay sound for
				// the stable candidates.
				if feas.Prunes("same") || feas.Prunes("renamed") {
					t.Error("sound candidate pruned during churn")
					return
				}
				_ = ix.Generation()
				_ = ix.Len()
			}
		}()
	}
	// Readers finish first; then stop the writer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	defer close(stop)
}

// pairPrunes is the per-pair oracle for the index's row queries: it
// decides from the two signatures alone whether the index prunes the
// ordered direction target → candidate. For each target fingerprint class
// it looks for a compatible parameter on the candidate's matching side,
// the membership test the postings answer in bulk, and then applies the
// counting conditions. Candidates the index does not hold, and the target
// itself, are never pruned.
func pairPrunes(ix *CatalogIndex, target, candidate *module.Module, mode Mode) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	c, ok := ix.sigs[candidate.ID]
	if !ok || candidate.ID == target.ID {
		return false
	}
	t := ix.targetSigLocked(target)
	for _, tc := range t.inClasses {
		if !sideHasCompatible(ix, c.inClasses, tc.strct, tc.concept, mode, false) {
			return true
		}
	}
	for _, tc := range t.outClasses {
		if !sideHasCompatible(ix, c.outClasses, tc.strct, tc.concept, mode, true) {
			return true
		}
	}
	return !countFeasible(t, c, mode)
}

// sideHasCompatible reports whether one side of a candidate signature
// carries a parameter that the target parameter (strct, sem) can map
// onto.
func sideHasCompatible(ix *CatalogIndex, classes map[string]paramClass, strct, sem string, mode Mode, output bool) bool {
	if mode == ModeExact {
		_, ok := classes[fingerprint(strct, sem)]
		return ok
	}
	if !ix.ont.Has(sem) {
		return false // Subsumes never holds for unknown concepts
	}
	concepts := append([]string{sem}, ix.ont.AncestorsView(sem)...)
	if output { // outputs accept subsumption in either direction
		concepts = append(concepts, ix.ont.DescendantsView(sem)...)
	}
	for _, concept := range concepts {
		if _, ok := classes[fingerprint(strct, concept)]; ok {
			return true
		}
	}
	return false
}
