package match

import (
	"fmt"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// Verdict is the outcome of a behaviour comparison (§6).
type Verdict int

const (
	// Incomparable: no parameter mapping exists, or no examples aligned.
	Incomparable Verdict = iota
	// Disjoint: aligned examples all produced different outputs.
	Disjoint
	// Overlapping: some, but not all, aligned examples agreed.
	Overlapping
	// Equivalent: every aligned example agreed ("eventually equivalent").
	Equivalent
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Incomparable:
		return "incomparable"
	case Disjoint:
		return "disjoint"
	case Overlapping:
		return "overlapping"
	case Equivalent:
		return "equivalent"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result reports one behaviour comparison.
type Result struct {
	TargetID    string
	CandidateID string
	Verdict     Verdict
	Mapping     Mapping
	// Compared is the number of aligned example pairs; Agreeing how many of
	// them produced identical outputs.
	Compared int
	Agreeing int
	// AgreeingKeys lists the input keys of agreeing pairs (used by the
	// contextual repair check).
	AgreeingKeys map[string]bool
}

// Score is the agreement ratio (0 when nothing was compared).
func (r Result) Score() float64 {
	if r.Compared == 0 {
		return 0
	}
	return float64(r.Agreeing) / float64(r.Compared)
}

func verdictFor(compared, agreeing int) Verdict {
	switch {
	case compared == 0:
		return Incomparable
	case agreeing == compared:
		return Equivalent
	case agreeing > 0:
		return Overlapping
	default:
		return Disjoint
	}
}

// ExampleSource yields the data examples a comparison is based on. Both
// *core.Generator and *core.CachedGenerator satisfy it; use the cached
// variant when the same modules are compared repeatedly (a substitute
// search over a catalog regenerates each candidate's set once per target
// otherwise).
type ExampleSource interface {
	Generate(m *module.Module) (dataexample.Set, *core.Report, error)
}

// Comparer compares module behaviour using data examples generated over a
// shared ontology and instance pool.
//
// Concurrency: a Comparer is safe for concurrent use as long as its
// fields are not mutated after construction — the ontology, generator and
// pool are all read-only during comparison. FindSubstitutes additionally
// invokes candidate modules from worker goroutines (each module from one
// worker only); module executors shared across candidates must tolerate
// concurrent invocation, as the transport and simulation executors do.
type Comparer struct {
	Ont *ontology.Ontology
	Gen ExampleSource
	// Mode selects the parameter-mapping strictness (default ModeExact).
	Mode Mode
	// Workers bounds FindSubstitutes' candidate fan-out; <= 0 selects
	// GOMAXPROCS. The ranking is deterministic at any width.
	Workers int
	// Index, when set, prunes substitute searches and matrix builds to
	// the mapping-feasible candidates before any example comparison. The
	// results are byte-identical to the exhaustive search (see
	// CatalogIndex); the caller owns keeping the index in sync with
	// signature changes via Update/Remove.
	Index *CatalogIndex
	// Metrics, when set, records search/comparison/prune counters and the
	// matrix cell-latency histogram.
	Metrics *telemetry.Registry
}

// NewComparer builds a Comparer with exact mapping.
func NewComparer(ont *ontology.Ontology, gen ExampleSource) *Comparer {
	return &Comparer{Ont: ont, Gen: gen}
}

// Compare generates data examples for both live modules and classifies
// their behaviour. Because both sets draw partition values from the same
// pool deterministically, examples over mapped parameters with the same
// semantic domain automatically share input values (§6: "we choose the
// same value for both i and i′").
func (c *Comparer) Compare(target, candidate *module.Module) (Result, error) {
	mapping, ok := MapParameters(c.Ont, target, candidate, c.Mode)
	if !ok {
		return Result{TargetID: target.ID, CandidateID: candidate.ID, Verdict: Incomparable}, nil
	}
	tSet, _, err := c.Gen.Generate(target)
	if err != nil {
		return Result{}, fmt.Errorf("match: generating for target %s: %w", target.ID, err)
	}
	cSet, _, err := c.Gen.Generate(candidate)
	if err != nil {
		return Result{}, fmt.Errorf("match: generating for candidate %s: %w", candidate.ID, err)
	}
	return CompareKeyedSets(target.ID, candidate.ID, tSet.Keyed(), cSet.Keyed(), mapping), nil
}

// CompareScratch holds the per-comparison buffers CompareKeyedSetsScratch
// reuses across calls, so a warm caller — a matrix sweep visiting tens of
// thousands of cells — allocates nothing per comparison. A scratch must
// not be shared between goroutines; give each worker its own.
type CompareScratch struct {
	agreeing map[string]bool
}

// CompareKeyedSets aligns two key-interned example sets through the
// mapping (map∆ of §6: pairs with identical input values) and contrasts
// their outputs. The alignment probes the candidate's precomputed
// input-key index, and under an identity mapping (parameter names
// coincide, the common case inside a single catalog) the target's
// interned keys are reused outright instead of re-canonicalising
// translated assignments. Equal interned output keys prove agreement
// without touching the value maps; unequal keys fall back to the
// per-parameter check, which also covers non-identity mappings.
// Duplicate candidate input keys keep the first occurrence.
func CompareKeyedSets(targetID, candidateID string, tSet, cSet *dataexample.KeyedSet, mapping Mapping) Result {
	return CompareKeyedSetsScratch(nil, targetID, candidateID, tSet, cSet, mapping)
}

// CompareKeyedSetsScratch is CompareKeyedSets with caller-owned scratch.
// The returned Result's AgreeingKeys aliases the scratch and is valid
// only until the next call with the same scratch; pass nil to get a
// fresh, caller-owned map (identical to CompareKeyedSets).
//
// When both sets were interned in the same SymbolTable and the mapping is
// the identity, the alignment runs entirely over symbol IDs: membership
// is a bitset probe and output agreement a uint32 compare, with the
// per-parameter value check only as the fallback for unequal output keys.
func CompareKeyedSetsScratch(sc *CompareScratch, targetID, candidateID string, tSet, cSet *dataexample.KeyedSet, mapping Mapping) Result {
	res := Result{TargetID: targetID, CandidateID: candidateID, Mapping: mapping}
	if sc != nil {
		if sc.agreeing == nil {
			sc.agreeing = make(map[string]bool, 8)
		}
		clear(sc.agreeing)
		res.AgreeingKeys = sc.agreeing
	} else {
		res.AgreeingKeys = map[string]bool{}
	}
	idIn := identityMapping(mapping.Inputs)
	idOut := identityMapping(mapping.Outputs)
	sameTable := tSet.Table() != nil && tSet.Table() == cSet.Table()
	useIDs := idIn && sameTable
	for i := 0; i < tSet.Len(); i++ {
		var j int
		var ok bool
		switch {
		case useIDs:
			j, ok = cSet.IndexByInputID(tSet.InputID(i))
		case idIn:
			j, ok = cSet.IndexByInput(tSet.InputKey(i))
		default:
			te := tSet.Example(i)
			key := (dataexample.Example{Inputs: translateInputs(te.Inputs, mapping.Inputs)}).InputKey()
			j, ok = cSet.IndexByInput(key)
		}
		if !ok {
			continue
		}
		res.Compared++
		var agree bool
		if idOut {
			if sameTable {
				agree = tSet.OutputID(i) == cSet.OutputID(j)
			} else {
				agree = tSet.OutputKey(i) == cSet.OutputKey(j)
			}
		}
		if !agree {
			agree = outputsAgree(tSet.Example(i).Outputs, cSet.Example(j).Outputs, mapping.Outputs)
		}
		if agree {
			res.Agreeing++
			res.AgreeingKeys[tSet.InputKey(i)] = true
		}
	}
	res.Verdict = verdictFor(res.Compared, res.Agreeing)
	return res
}

// identityMapping reports whether every parameter maps to its own name.
func identityMapping(m map[string]string) bool {
	for from, to := range m {
		if from != to {
			return false
		}
	}
	return true
}

// CompareAgainstExamples compares a candidate module against the recorded
// data examples of a (possibly unavailable) target module: the candidate is
// invoked on each example's inputs and its outputs contrasted with the
// recorded ones. This is the workflow-repair path of §6 — the target
// cannot be invoked, but its examples survive in provenance. The target's
// parameter signature must be supplied since the module itself is gone.
func (c *Comparer) CompareAgainstExamples(targetSig *module.Module, targetSet dataexample.Set, candidate *module.Module) (Result, error) {
	return c.compareAgainstExamples(targetSig, targetSet, candidate, func(i int) string {
		return targetSet[i].InputKey()
	})
}

// compareAgainstKeyedExamples is CompareAgainstExamples with the target's
// canonical keys interned once per search instead of re-derived per
// agreeing pair per candidate — FindSubstitutes keys the target set once
// and reuses it across the whole candidate field.
func (c *Comparer) compareAgainstKeyedExamples(targetSig *module.Module, keyed *dataexample.KeyedSet, candidate *module.Module) (Result, error) {
	return c.compareAgainstExamples(targetSig, keyed.Examples(), candidate, keyed.InputKey)
}

func (c *Comparer) compareAgainstExamples(targetSig *module.Module, targetSet dataexample.Set, candidate *module.Module, inputKeyAt func(int) string) (Result, error) {
	mapping, ok := MapParameters(c.Ont, targetSig, candidate, c.Mode)
	if !ok {
		return Result{TargetID: targetSig.ID, CandidateID: candidate.ID, Verdict: Incomparable}, nil
	}
	res := Result{TargetID: targetSig.ID, CandidateID: candidate.ID, Mapping: mapping, AgreeingKeys: map[string]bool{}}
	for i, te := range targetSet {
		inputs := translateInputs(te.Inputs, mapping.Inputs)
		outs, err := candidate.Invoke(inputs)
		res.Compared++
		if err != nil {
			if module.IsExecutionError(err) {
				continue // abnormal termination: behaviours differ here
			}
			return Result{}, fmt.Errorf("match: invoking candidate %s: %w", candidate.ID, err)
		}
		if outputsAgree(te.Outputs, outs, mapping.Outputs) {
			res.Agreeing++
			res.AgreeingKeys[inputKeyAt(i)] = true
		}
	}
	res.Verdict = verdictFor(res.Compared, res.Agreeing)
	return res, nil
}

// RestrictToContext filters a target example set to the examples whose
// input partitions are subsumed by the given context concepts (parameter
// name -> concept actually flowing at that point of the workflow). This is
// the Figure-7 situation: an Overlapping candidate is a safe substitute
// when it agrees on every example within the workflow's context.
func RestrictToContext(ont *ontology.Ontology, set dataexample.Set, context map[string]string) dataexample.Set {
	var out dataexample.Set
	for _, e := range set {
		ok := true
		for param, concept := range context {
			part, has := e.InputPartitions[param]
			if !has || !ont.Subsumes(concept, part) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

func translateInputs(inputs map[string]typesys.Value, m map[string]string) map[string]typesys.Value {
	out := make(map[string]typesys.Value, len(inputs))
	for name, v := range inputs {
		if to, ok := m[name]; ok {
			out[to] = v
		}
	}
	return out
}

func outputsAgree(tOut, cOut map[string]typesys.Value, m map[string]string) bool {
	for tName, cName := range m {
		tv, ok1 := tOut[tName]
		cv, ok2 := cOut[cName]
		if ok1 != ok2 {
			return false
		}
		if ok1 && !tv.Equal(cv) {
			return false
		}
	}
	return true
}
