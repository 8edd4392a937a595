package match

import (
	"strings"
	"testing"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/instances"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/typesys"
)

type fixture struct {
	ont  *ontology.Ontology
	pool *instances.Pool
	gen  *core.Generator
	cmp  *Comparer
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("RNA", "", "Seq")
	o.MustAddConcept("Prot", "", "Seq")
	o.MustAddConcept("Acc", "", "Data")

	p := instances.NewPool(o)
	p.MustAdd("Seq", typesys.Str("XXXX"), "")
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("RNA", typesys.Str("ACGU"), "")
	p.MustAdd("Prot", typesys.Str("MKTW"), "")
	p.MustAdd("Acc", typesys.Str("P12345"), "")

	g := core.NewGenerator(o, p)
	return &fixture{ont: o, pool: p, gen: g, cmp: NewComparer(o, g)}
}

// seqModule builds a Seq->Acc module computing fn.
func seqModule(id string, fn func(s string) (string, error)) *module.Module {
	m := &module.Module{
		ID: id, Name: id,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "Acc"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		out, err := fn(string(in["seq"].(typesys.StringValue)))
		if err != nil {
			return nil, err
		}
		return map[string]typesys.Value{"acc": typesys.Str(out)}, nil
	}))
	return m
}

func prefixer(prefix string) func(string) (string, error) {
	return func(s string) (string, error) { return prefix + s, nil }
}

func TestMapParametersExact(t *testing.T) {
	f := newFixture(t)
	a := seqModule("a", prefixer("X:"))
	b := seqModule("b", prefixer("X:"))
	b.Inputs[0].Name = "sequence" // names differ; semantics align
	m, ok := MapParameters(f.ont, a, b, ModeExact)
	if !ok {
		t.Fatal("mapping should exist")
	}
	if m.Inputs["seq"] != "sequence" || m.Outputs["acc"] != "acc" {
		t.Errorf("mapping = %+v", m)
	}
	// Different concept: no exact mapping.
	c := seqModule("c", prefixer("X:"))
	c.Inputs[0].Semantic = "DNA"
	if _, ok := MapParameters(f.ont, a, c, ModeExact); ok {
		t.Error("exact mapping should reject subconcept input")
	}
	// Different structural type: no mapping in any mode.
	d := seqModule("d", prefixer("X:"))
	d.Inputs[0].Struct = typesys.IntType
	if _, ok := MapParameters(f.ont, a, d, ModeRelaxed); ok {
		t.Error("structural mismatch must fail")
	}
}

func TestMapParametersRelaxed(t *testing.T) {
	f := newFixture(t)
	target := seqModule("target", prefixer("X:"))
	target.Inputs[0].Semantic = "Prot"
	target.Outputs[0].Semantic = "Prot"
	cand := seqModule("cand", prefixer("X:"))
	cand.Inputs[0].Semantic = "Seq" // superconcept: accepts more
	cand.Outputs[0].Semantic = "Seq"
	if _, ok := MapParameters(f.ont, target, cand, ModeExact); ok {
		t.Error("exact should fail")
	}
	if _, ok := MapParameters(f.ont, target, cand, ModeRelaxed); !ok {
		t.Error("relaxed should succeed (Figure 7 case)")
	}
	// The reverse direction (candidate narrower than target) must fail:
	// the candidate would reject inputs the target accepted.
	if _, ok := MapParameters(f.ont, cand, target, ModeRelaxed); ok {
		t.Error("narrower candidate input must not map")
	}
}

func TestBijectionBacktracking(t *testing.T) {
	f := newFixture(t)
	// Two same-typed inputs with different concepts force the search to
	// try orders.
	target := &module.Module{
		ID: "t", Name: "t",
		Inputs: []module.Parameter{
			{Name: "a", Struct: typesys.StringType, Semantic: "DNA"},
			{Name: "b", Struct: typesys.StringType, Semantic: "Seq"},
		},
		Outputs: []module.Parameter{{Name: "o", Struct: typesys.StringType, Semantic: "Acc"}},
	}
	cand := &module.Module{
		ID: "c", Name: "c",
		Inputs: []module.Parameter{
			{Name: "x", Struct: typesys.StringType, Semantic: "Seq"},
			{Name: "y", Struct: typesys.StringType, Semantic: "DNA"},
		},
		Outputs: []module.Parameter{{Name: "o2", Struct: typesys.StringType, Semantic: "Acc"}},
	}
	m, ok := MapParameters(f.ont, target, cand, ModeExact)
	if !ok || m.Inputs["a"] != "y" || m.Inputs["b"] != "x" {
		t.Errorf("mapping = %+v, ok=%v", m, ok)
	}
	// Relaxed mode has two possibilities for "a" (both Seq and DNA subsume
	// or equal DNA? Seq subsumes DNA, DNA equals DNA): still must cover "b".
	m, ok = MapParameters(f.ont, target, cand, ModeRelaxed)
	if !ok || m.Inputs["b"] != "x" {
		t.Errorf("relaxed mapping = %+v, ok=%v", m, ok)
	}
}

func TestMappingOptionalCandidateInput(t *testing.T) {
	f := newFixture(t)
	target := seqModule("t", prefixer("X:"))
	cand := seqModule("c", prefixer("X:"))
	cand.Inputs = append(cand.Inputs, module.Parameter{
		Name: "limit", Struct: typesys.FloatType, Semantic: "Data", Optional: true, Default: typesys.Floatv(1),
	})
	if _, ok := MapParameters(f.ont, target, cand, ModeExact); !ok {
		t.Error("unmapped optional candidate input should be skippable")
	}
	// A required extra candidate input blocks the mapping.
	cand.Inputs[1].Optional = false
	if _, ok := MapParameters(f.ont, target, cand, ModeExact); ok {
		t.Error("unmapped required candidate input must fail")
	}
	// Extra candidate output blocks the mapping (outputs must be 1-to-1).
	cand2 := seqModule("c2", prefixer("X:"))
	cand2.Outputs = append(cand2.Outputs, module.Parameter{Name: "extra", Struct: typesys.StringType, Semantic: "Acc"})
	if _, ok := MapParameters(f.ont, target, cand2, ModeExact); ok {
		t.Error("extra candidate output must fail")
	}
}

func TestCompareVerdicts(t *testing.T) {
	f := newFixture(t)
	target := seqModule("target", prefixer("X:"))

	equiv := seqModule("equiv", prefixer("X:"))
	res, err := f.cmp.Compare(target, equiv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent || res.Compared != 4 || res.Agreeing != 4 {
		t.Errorf("equiv: %+v", res)
	}

	overlap := seqModule("overlap", func(s string) (string, error) {
		if strings.Contains(s, "U") {
			return "Y:" + s, nil
		}
		return "X:" + s, nil
	})
	res, err = f.cmp.Compare(target, overlap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Overlapping || res.Agreeing != 3 || res.Compared != 4 {
		t.Errorf("overlap: %+v", res)
	}
	if res.Score() != 0.75 {
		t.Errorf("score = %v", res.Score())
	}

	disj := seqModule("disj", prefixer("Z:"))
	res, err = f.cmp.Compare(target, disj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Disjoint || res.Agreeing != 0 {
		t.Errorf("disjoint: %+v", res)
	}

	// Incomparable signature.
	inc := seqModule("inc", prefixer("X:"))
	inc.Inputs[0].Semantic = "Acc"
	res, err = f.cmp.Compare(target, inc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Incomparable {
		t.Errorf("incomparable: %+v", res)
	}
	if Incomparable.String() != "incomparable" || Equivalent.String() != "equivalent" ||
		Overlapping.String() != "overlapping" || Disjoint.String() != "disjoint" {
		t.Error("verdict names")
	}
}

func TestCompareAgainstExamples(t *testing.T) {
	f := newFixture(t)
	target := seqModule("gone", prefixer("X:"))
	set, _, err := f.gen.Generate(target)
	if err != nil {
		t.Fatal(err)
	}
	// The target module disappears; only signature+examples remain.
	sig := seqModule("gone", nil)
	sig.Bind(nil)

	cand := seqModule("cand", prefixer("X:"))
	res, err := f.cmp.CompareAgainstExamples(sig, set, cand)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent || res.Compared != len(set) {
		t.Errorf("equiv against examples: %+v", res)
	}

	// Candidate erroring on some inputs counts those as disagreement.
	flaky := seqModule("flaky", func(s string) (string, error) {
		if strings.Contains(s, "U") {
			return "", module.ErrRejectedInput
		}
		return "X:" + s, nil
	})
	res, err = f.cmp.CompareAgainstExamples(sig, set, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Overlapping || res.Agreeing != 3 || res.Compared != 4 {
		t.Errorf("flaky: %+v", res)
	}
}

func TestRestrictToContext(t *testing.T) {
	f := newFixture(t)
	target := seqModule("t", prefixer("X:"))
	set, _, err := f.gen.Generate(target)
	if err != nil {
		t.Fatal(err)
	}
	// Context: only protein sequences flow into this step.
	got := RestrictToContext(f.ont, set, map[string]string{"seq": "Prot"})
	if len(got) != 1 || got[0].InputPartitions["seq"] != "Prot" {
		t.Errorf("context restriction = %v", got)
	}
	// Context at Seq keeps everything.
	got = RestrictToContext(f.ont, set, map[string]string{"seq": "Seq"})
	if len(got) != 4 {
		t.Errorf("broad context = %d", len(got))
	}
	// Unknown context parameter removes all.
	got = RestrictToContext(f.ont, set, map[string]string{"nope": "Seq"})
	if len(got) != 0 {
		t.Errorf("unknown param context = %d", len(got))
	}
}

// TestFigure7Scenario: the substitute has semantically broader parameters;
// relaxed comparison against the context-restricted examples certifies it.
func TestFigure7Scenario(t *testing.T) {
	f := newFixture(t)
	// GetProteinSequence: Prot accession-like values -> Prot sequence.
	target := seqModule("GetProteinSequence", prefixer("SEQ:"))
	target.Inputs[0].Semantic = "Prot"
	target.Outputs[0].Semantic = "Prot"
	set, _, err := f.gen.Generate(target)
	if err != nil {
		t.Fatal(err)
	}
	// GetBiologicalSequence agrees with the target on proteins but treats
	// nucleotide input differently.
	cand := seqModule("GetBiologicalSequence", func(s string) (string, error) {
		if strings.Trim(s, "ACGTUN") == "" {
			return "NUC:" + s, nil
		}
		return "SEQ:" + s, nil
	})
	cand.Inputs[0].Semantic = "Seq"
	cand.Outputs[0].Semantic = "Seq"

	f.cmp.Mode = ModeRelaxed
	ctx := RestrictToContext(f.ont, set, map[string]string{"seq": "Prot"})
	res, err := f.cmp.CompareAgainstExamples(target, ctx, cand)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Errorf("contextual verdict = %+v", res)
	}
}

// TestCompareLiveRelaxed exercises the live (generate-both-sides) path
// under relaxed mapping: the candidate's broader domain generates more
// examples, and the verdict is computed over the aligned pairs only.
func TestCompareLiveRelaxed(t *testing.T) {
	f := newFixture(t)
	target := seqModule("narrow", prefixer("X:"))
	target.Inputs[0].Semantic = "Prot"
	target.Outputs[0].Semantic = "Prot"
	cand := seqModule("broad", prefixer("X:"))
	cand.Inputs[0].Semantic = "Seq"
	cand.Outputs[0].Semantic = "Seq"

	// Exact mode: incomparable.
	res, err := f.cmp.Compare(target, cand)
	if err != nil || res.Verdict != Incomparable {
		t.Fatalf("exact: %+v, %v", res, err)
	}
	// Relaxed mode: aligned on the single shared (protein) input value.
	f.cmp.Mode = ModeRelaxed
	defer func() { f.cmp.Mode = ModeExact }()
	res, err = f.cmp.Compare(target, cand)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent || res.Compared != 1 {
		t.Errorf("relaxed: %+v", res)
	}
	if len(res.AgreeingKeys) != 1 {
		t.Errorf("agreeing keys = %v", res.AgreeingKeys)
	}
}

func TestFindSubstitutes(t *testing.T) {
	f := newFixture(t)
	target := seqModule("gone", prefixer("X:"))
	set, _, err := f.gen.Generate(target)
	if err != nil {
		t.Fatal(err)
	}
	un := Unavailable{Signature: target, Examples: set}
	overlapping := seqModule("overlapping", func(s string) (string, error) {
		if strings.Contains(s, "U") {
			return "Y:" + s, nil
		}
		return "X:" + s, nil
	})
	candidates := []*module.Module{
		seqModule("zz-equiv", prefixer("X:")),
		overlapping,
		seqModule("disjoint", prefixer("Z:")),
		seqModule("aa-equiv", prefixer("X:")),
	}
	subs, err := f.cmp.FindSubstitutes(un, candidates)
	if err != nil {
		t.Fatal(err)
	}
	got := subs.Ranked
	if len(got) != 3 {
		t.Fatalf("substitutes = %d", len(got))
	}
	if got[0].Module.ID != "aa-equiv" || got[1].Module.ID != "zz-equiv" || got[2].Module.ID != "overlapping" {
		t.Errorf("ranking = %s, %s, %s", got[0].Module.ID, got[1].Module.ID, got[2].Module.ID)
	}
	if len(subs.Skipped) != 0 {
		t.Errorf("skipped = %v, want none", subs.Skipped)
	}
	// The top-ranked substitute, or nil when none qualifies.
	top := func(available []*module.Module) (*Candidate, error) {
		subs, err := f.cmp.FindSubstitutes(un, available)
		if err != nil || len(subs.Ranked) == 0 {
			return nil, err
		}
		return &subs.Ranked[0], nil
	}
	best, err := top(candidates)
	if err != nil || best == nil || best.Module.ID != "aa-equiv" {
		t.Errorf("best = %+v, %v", best, err)
	}

	// The target itself is skipped; no candidates -> nil.
	none, err := top([]*module.Module{target})
	if err != nil || none != nil {
		t.Errorf("self-match = %+v, %v", none, err)
	}

	if _, err := f.cmp.FindSubstitutes(Unavailable{}, candidates); err == nil {
		t.Error("missing signature should fail")
	}
	if _, err := f.cmp.FindSubstitutes(Unavailable{Signature: target}, candidates); err == nil {
		t.Error("missing examples should fail")
	}
}

func TestSignatureBaseline(t *testing.T) {
	f := newFixture(t)
	target := seqModule("t", prefixer("X:"))
	sameSig := seqModule("same", prefixer("Z:")) // different behaviour!
	diffSig := seqModule("diff", prefixer("X:"))
	diffSig.Inputs[0].Semantic = "Acc"
	if !SignatureMatch(f.ont, target, sameSig, ModeExact) {
		t.Error("signature baseline should accept same signature")
	}
	if SignatureMatch(f.ont, target, diffSig, ModeExact) {
		t.Error("signature baseline should reject different signature")
	}
	got := SignatureCandidates(f.ont, target, []*module.Module{target, sameSig, diffSig}, ModeExact)
	if len(got) != 1 || got[0].ID != "same" {
		t.Errorf("candidates = %v", got)
	}
}

func TestTraceBaseline(t *testing.T) {
	mk := func(in, out string) dataexample.Example {
		return dataexample.Example{
			Inputs:  map[string]typesys.Value{"seq": typesys.Str(in)},
			Outputs: map[string]typesys.Value{"acc": typesys.Str(out)},
		}
	}
	target := dataexample.Set{mk("A", "X:A"), mk("B", "X:B"), mk("C", "X:C")}
	// Candidate traces share only one input, agreeing on it.
	cand := dataexample.Set{mk("A", "X:A"), mk("Q", "X:Q")}
	sim := CompareTraces(target, cand)
	if sim.SharedInputs != 1 || sim.Agreeing != 1 || sim.TargetInputs != 3 {
		t.Errorf("sim = %+v", sim)
	}
	if got := sim.Score(); got < 0.33 || got > 0.34 {
		t.Errorf("score = %v", got)
	}
	if (TraceSimilarity{}).Score() != 0 {
		t.Error("empty trace score should be 0")
	}
	// Same inputs, conflicting outputs: shared but not agreeing.
	conflict := dataexample.Set{mk("A", "Z:A")}
	sim = CompareTraces(target, conflict)
	if sim.SharedInputs != 1 || sim.Agreeing != 0 {
		t.Errorf("conflict sim = %+v", sim)
	}
}

func TestModeString(t *testing.T) {
	if ModeExact.String() != "exact" || ModeRelaxed.String() != "relaxed" {
		t.Error("mode names")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode")
	}
}
