package match

import (
	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// CompareExampleSets is the oracle for CompareKeyedSets: it aligns two
// raw example sets through the mapping (map∆ of §6: pairs with identical
// input values) and contrasts outputs, recomputing canonical keys on the
// fly. Every keyed comparison path must agree with it on every verdict,
// count and agreeing key. Duplicate candidate input keys keep the first
// occurrence, matching Set.ByInputKey (generation never produces
// duplicates; the tie-break only matters for hand-built sets).
//
// It is exported so the full-catalog tests in package match_test can
// use it too.
func CompareExampleSets(targetID, candidateID string, tSet, cSet dataexample.Set, mapping Mapping) Result {
	res := Result{TargetID: targetID, CandidateID: candidateID, Mapping: mapping, AgreeingKeys: map[string]bool{}}
	cIdx := make(map[string]dataexample.Example, len(cSet))
	for _, e := range cSet {
		k := e.InputKey()
		if _, dup := cIdx[k]; !dup {
			cIdx[k] = e
		}
	}
	for _, te := range tSet {
		translated := translateInputs(te.Inputs, mapping.Inputs)
		key := (dataexample.Example{Inputs: translated}).InputKey()
		ce, ok := cIdx[key]
		if !ok {
			continue
		}
		res.Compared++
		if outputsAgree(te.Outputs, ce.Outputs, mapping.Outputs) {
			res.Agreeing++
			res.AgreeingKeys[te.InputKey()] = true
		}
	}
	res.Verdict = verdictFor(res.Compared, res.Agreeing)
	return res
}

// DenseMatchMatrix is the oracle for MatchMatrixFromKeyedSets: the plain
// ordered double loop over every pair of the resolved modules, with one
// Feasibility query per target row and MapParameters and
// CompareKeyedSets per direction — no bitsets, no workers, no pair
// sharing. An exact-mode direction the builder mirrors is aligned here
// as well and only counted as Mirrored, so equality also checks that
// mirroring is exact.
func DenseMatchMatrix(c *Comparer, mods []*module.Module, source KeyedSource) *MatchMatrix {
	in := resolveMatrixInputs(mods, source)
	n := len(in.ids)
	mm := &MatchMatrix{Mode: c.Mode.String(), Modules: in.ids, Missing: in.missing, Cells: []MatrixCell{}}
	mm.Stats.Modules = n
	feas := make([]*Feasibility, n) // a nil row prunes nothing
	if c.Index != nil {
		for i := range feas {
			feas[i] = c.Index.Feasibility(in.sigs[i], c.Mode)
		}
	}
	mapping := func(a, b int) (Mapping, bool) {
		if feas[a].Prunes(in.ids[b]) {
			return Mapping{}, false
		}
		return MapParameters(c.Ont, in.sigs[a], in.sigs[b], c.Mode)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			mm.Stats.Pairs++
			fwd, ok := mapping(a, b)
			if !ok {
				if feas[a].Prunes(in.ids[b]) {
					mm.Stats.Pruned++
				}
				mm.Stats.Incomparable++
				continue
			}
			// The builder aligns the pair once, from the smaller index, and
			// mirrors it when the two mappings are inverse bijections.
			rev, rok := mapping(b, a)
			if a > b && c.Mode == ModeExact && rok && mappingsInverse(rev, fwd) &&
				in.keyed[a].UniqueInputs() && in.keyed[b].UniqueInputs() {
				mm.Stats.Mirrored++
			} else {
				mm.Stats.Compared++
			}
			res := CompareKeyedSets(in.ids[a], in.ids[b], in.keyed[a], in.keyed[b], fwd)
			switch res.Verdict {
			case Incomparable:
				mm.Stats.Incomparable++
				continue
			case Equivalent:
				mm.Stats.Equivalent++
			case Overlapping:
				mm.Stats.Overlapping++
			case Disjoint:
				mm.Stats.Disjoint++
			}
			mm.Cells = append(mm.Cells, MatrixCell{
				Target: in.ids[a], Candidate: in.ids[b], Verdict: res.Verdict.String(),
				Score: res.Score(), Compared: res.Compared, Agreeing: res.Agreeing,
			})
		}
	}
	return mm
}
