package match

import "dexa/internal/dataexample"

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
