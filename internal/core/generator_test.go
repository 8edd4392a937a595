package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dexa/internal/instances"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/typesys"
)

// fixture builds the running example of the paper: a getAccession-style
// module over the Figure-4 ontology fragment, plus a pool with one
// realization per concept.
type fixture struct {
	ont  *ontology.Ontology
	pool *instances.Pool
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	o := ontology.New("mygrid")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("BioSequence", "", "Data")
	o.MustAddConcept("NucleotideSequence", "", "BioSequence")
	o.MustAddConcept("DNASequence", "", "NucleotideSequence")
	o.MustAddConcept("RNASequence", "", "NucleotideSequence")
	o.MustAddConcept("ProtSequence", "", "BioSequence")
	o.MustAddConcept("Accession", "", "Data")
	o.MustAddConcept("Percentage", "", "Data")

	p := instances.NewPool(o)
	p.MustAdd("BioSequence", typesys.Str("XXXX"), "")
	p.MustAdd("NucleotideSequence", typesys.Str("NNNN"), "")
	p.MustAdd("DNASequence", typesys.Str("ACGT"), "")
	p.MustAdd("RNASequence", typesys.Str("ACGU"), "")
	p.MustAdd("ProtSequence", typesys.Str("MKTW"), "")
	p.MustAdd("Percentage", typesys.Floatv(5), "")
	p.MustAdd("Accession", typesys.Str("P12345"), "")
	return &fixture{ont: o, pool: p}
}

// getAccession returns a distinct accession prefix per top-level sequence
// family: its classes of behaviour are {nucleotide-like, protein-like,
// generic}.
func (f *fixture) getAccession() *module.Module {
	m := &module.Module{
		ID: "getAccession", Name: "getAccession",
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "BioSequence"}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "Accession"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		s := string(in["seq"].(typesys.StringValue))
		var acc string
		switch {
		case strings.ContainsAny(s, "U"):
			acc = "RNA:" + s
		case strings.Trim(s, "ACGTN") == "":
			acc = "NUC:" + s
		default:
			acc = "PROT:" + s
		}
		return map[string]typesys.Value{"acc": typesys.Str(acc)}, nil
	}))
	return m
}

func TestGenerateSingleInput(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	set, rep, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// 5 partitions: BioSequence + its 4 descendants, all realizable.
	wantParts := []string{"BioSequence", "DNASequence", "NucleotideSequence", "ProtSequence", "RNASequence"}
	if got := rep.InputPartitions["seq"]; !reflect.DeepEqual(got, wantParts) {
		t.Errorf("InputPartitions = %v", got)
	}
	if len(set) != 5 {
		t.Fatalf("examples = %d, want 5", len(set))
	}
	if got := rep.CoveredInput["seq"]; !reflect.DeepEqual(got, wantParts) {
		t.Errorf("CoveredInput = %v", got)
	}
	if rep.InputCoverage() != 1 {
		t.Errorf("InputCoverage = %v", rep.InputCoverage())
	}
	if rep.FailedCombinations != 0 || rep.Truncated != 0 {
		t.Errorf("unexpected failures: %+v", rep)
	}
	// Every example records the partition its input came from, and the
	// value is a realization of exactly that concept.
	for _, e := range set {
		part := e.InputPartitions["seq"]
		in, ok := f.pool.Realization(part, typesys.StringType, 0)
		if !ok || !e.Inputs["seq"].Equal(in.Value) {
			t.Errorf("example input %v is not the partition realization of %s", e.Inputs["seq"], part)
		}
	}
}

func TestGenerateAbstractConceptSkipped(t *testing.T) {
	f := newFixture(t)
	if err := f.ont.MarkAbstract("NucleotideSequence"); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(f.ont, f.pool)
	set, rep, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BioSequence", "DNASequence", "ProtSequence", "RNASequence"}
	if got := rep.InputPartitions["seq"]; !reflect.DeepEqual(got, want) {
		t.Errorf("partitions with abstract concept = %v", got)
	}
	if len(set) != 4 {
		t.Errorf("examples = %d", len(set))
	}
}

func TestGenerateMultiInputCombinations(t *testing.T) {
	f := newFixture(t)
	// identify(masses, err): rejects identification errors > 50.
	m := &module.Module{
		ID: "identify", Name: "Identify",
		Inputs: []module.Parameter{
			{Name: "seq", Struct: typesys.StringType, Semantic: "NucleotideSequence"},
			{Name: "err", Struct: typesys.FloatType, Semantic: "Percentage"},
		},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "Accession"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		e := float64(in["err"].(typesys.FloatValue))
		if e > 50 {
			return nil, module.ErrRejectedInput
		}
		return map[string]typesys.Value{"acc": typesys.Str("P1")}, nil
	}))
	g := NewGenerator(f.ont, f.pool)
	set, rep, err := g.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// seq has 3 partitions (NucleotideSequence, DNA, RNA); err has 1.
	if rep.TotalCombinations != 3 {
		t.Errorf("TotalCombinations = %d", rep.TotalCombinations)
	}
	if len(set) != 3 {
		t.Errorf("examples = %d", len(set))
	}

	// Now poison the percentage instance so all combinations fail.
	f.pool.MustAdd("Percentage", typesys.Floatv(90), "")
	g2 := NewGenerator(f.ont, f.pool)
	g2.ValuesPerPartition = 2
	set2, rep2, err := g2.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// 3 seq partitions × 2 err values = 6 combos, half fail.
	if rep2.TotalCombinations != 6 || rep2.FailedCombinations != 3 {
		t.Errorf("combos = %d, failed = %d", rep2.TotalCombinations, rep2.FailedCombinations)
	}
	if len(set2) != 3 {
		t.Errorf("examples = %d", len(set2))
	}
}

func TestGenerateAllCombinationsFail(t *testing.T) {
	f := newFixture(t)
	m := f.getAccession()
	m.Bind(module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return nil, module.ErrRejectedInput
	}))
	g := NewGenerator(f.ont, f.pool)
	set, rep, err := g.Generate(m)
	if err != nil {
		t.Fatalf("all-fail should not be a generation error: %v", err)
	}
	if len(set) != 0 || rep.FailedCombinations != 5 {
		t.Errorf("set=%d failed=%d", len(set), rep.FailedCombinations)
	}
	if rep.InputCoverage() != 0 {
		t.Errorf("InputCoverage = %v", rep.InputCoverage())
	}
}

func TestGenerateMissingInstances(t *testing.T) {
	f := newFixture(t)
	// An int-typed sequence parameter has no compatible pool realizations
	// except none — every partition is missing, which is an error.
	m := f.getAccession()
	m.Inputs[0].Struct = typesys.IntType
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"acc": typesys.Str("x")}, nil
	}))
	g := NewGenerator(f.ont, f.pool)
	_, rep, err := g.Generate(m)
	if err == nil {
		t.Fatal("expected error when no partition has instances")
	}
	if len(rep.MissingInstances) != 5 {
		t.Errorf("MissingInstances = %v", rep.MissingInstances)
	}
	if rep.MissingInstances[0].String() != "seq/BioSequence" {
		t.Errorf("PartitionRef.String = %q", rep.MissingInstances[0])
	}
}

func TestGeneratePartialInstances(t *testing.T) {
	f := newFixture(t)
	// Remove realizations for RNA by using a fresh pool without it.
	p := instances.NewPool(f.ont)
	p.MustAdd("BioSequence", typesys.Str("XXXX"), "")
	p.MustAdd("NucleotideSequence", typesys.Str("NNNN"), "")
	p.MustAdd("DNASequence", typesys.Str("ACGT"), "")
	p.MustAdd("ProtSequence", typesys.Str("MKTW"), "")
	g := NewGenerator(f.ont, p)
	set, rep, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Errorf("examples = %d", len(set))
	}
	if len(rep.MissingInstances) != 1 || rep.MissingInstances[0].Concept != "RNASequence" {
		t.Errorf("MissingInstances = %v", rep.MissingInstances)
	}
	if got := rep.InputCoverage(); got != 0.8 {
		t.Errorf("InputCoverage = %v, want 0.8", got)
	}
}

func TestGenerateOutputClassification(t *testing.T) {
	f := newFixture(t)
	// Register a classifier for accessions so outputs can be partitioned.
	f.ont.MustAddConcept("NucAccession", "", "Accession")
	f.ont.MustAddConcept("ProtAccession", "", "Accession")
	if err := f.pool.RegisterClassifier("Accession", func(v typesys.Value) string {
		s, ok := v.(typesys.StringValue)
		if !ok {
			return ""
		}
		switch {
		case strings.HasPrefix(string(s), "PROT:"):
			return "ProtAccession"
		case strings.HasPrefix(string(s), "NUC:"), strings.HasPrefix(string(s), "RNA:"):
			return "NucAccession"
		}
		return "Accession"
	}); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(f.ont, f.pool)
	set, rep, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range set {
		if c := e.OutputPartitions["acc"]; c != "" && !slices.Contains(got, c) {
			got = append(got, c)
		}
	}
	if sort.Strings(got); !reflect.DeepEqual(got, []string{"NucAccession", "ProtAccession"}) {
		t.Errorf("output partitions = %v", got)
	}
	// Output partitions identified: Accession + 2 children; Accession
	// itself is never produced, so output coverage is 2/3.
	if got := rep.OutputCoverage(); got < 0.66 || got > 0.67 {
		t.Errorf("OutputCoverage = %v", got)
	}
	if rep.FullOutputCoverage() {
		t.Error("FullOutputCoverage should be false")
	}
	// Combined §4.2 coverage: (5 input + 2 output) / (5 + 3).
	if got := rep.Coverage(); got != 7.0/8.0 {
		t.Errorf("Coverage = %v", got)
	}
}

func TestGenerateOptionalOmitted(t *testing.T) {
	f := newFixture(t)
	m := &module.Module{
		ID: "trim", Name: "Trim",
		Inputs: []module.Parameter{
			{Name: "seq", Struct: typesys.StringType, Semantic: "DNASequence"},
			{Name: "limit", Struct: typesys.FloatType, Semantic: "Percentage", Optional: true, Default: typesys.Floatv(100)},
		},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "DNASequence"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": in["seq"]}, nil
	}))
	g := NewGenerator(f.ont, f.pool)
	g.IncludeOptionalOmitted = true
	set, rep, err := g.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// 1 seq partition × (1 percentage + omitted) = 2 combos.
	if rep.TotalCombinations != 2 || len(set) != 2 {
		t.Fatalf("combos=%d examples=%d", rep.TotalCombinations, len(set))
	}
	var omitted bool
	for _, e := range set {
		if e.InputPartitions["limit"] == OmittedPartition {
			omitted = true
			if _, present := e.Inputs["limit"]; present {
				t.Error("omitted input should not appear in example inputs")
			}
		}
	}
	if !omitted {
		t.Error("no omitted-choice example generated")
	}
}

func TestGenerateTruncation(t *testing.T) {
	f := newFixture(t)
	m := &module.Module{
		ID: "pair", Name: "Pair",
		Inputs: []module.Parameter{
			{Name: "a", Struct: typesys.StringType, Semantic: "BioSequence"},
			{Name: "b", Struct: typesys.StringType, Semantic: "BioSequence"},
		},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "Accession"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": typesys.Str("x")}, nil
	}))
	g := NewGenerator(f.ont, f.pool)
	g.MaxCombinations = 7
	set, rep, err := g.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCombinations != 25 || rep.Truncated != 18 || len(set) != 7 {
		t.Errorf("total=%d truncated=%d examples=%d", rep.TotalCombinations, rep.Truncated, len(set))
	}
}

func TestGenerateLeafOnlyStrategy(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	g.Strategy = StrategyLeafOnly
	set, rep, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DNASequence", "ProtSequence", "RNASequence"}
	if got := rep.InputPartitions["seq"]; !reflect.DeepEqual(got, want) {
		t.Errorf("leaf partitions = %v", got)
	}
	if len(set) != 3 {
		t.Errorf("examples = %d", len(set))
	}
	if StrategyRealization.String() != "realization" || StrategyLeafOnly.String() != "leaf-only" {
		t.Error("strategy names")
	}
	if !strings.Contains(PartitionStrategy(7).String(), "7") {
		t.Error("unknown strategy name")
	}
}

func TestGenerateErrors(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)

	invalid := f.getAccession()
	invalid.ID = ""
	if _, _, err := g.Generate(invalid); err == nil {
		t.Error("invalid module should fail")
	}

	unbound := f.getAccession()
	unbound.Bind(nil)
	if _, _, err := g.Generate(unbound); err == nil {
		t.Error("unbound module should fail")
	}

	unannotated := f.getAccession()
	unannotated.Inputs[0].Semantic = ""
	if _, _, err := g.Generate(unannotated); err == nil {
		t.Error("unannotated parameter should fail")
	}

	unknownConcept := f.getAccession()
	unknownConcept.Inputs[0].Semantic = "Mystery"
	if _, _, err := g.Generate(unknownConcept); err == nil {
		t.Error("unknown concept should fail")
	}

	badOut := f.getAccession()
	badOut.Outputs[0].Semantic = "Mystery"
	if _, _, err := g.Generate(badOut); err == nil {
		t.Error("unknown output concept should fail")
	}

	// Modules whose executor violates its declaration surface real errors.
	broken := f.getAccession()
	broken.Bind(module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{}, nil // missing output
	}))
	if _, _, err := g.Generate(broken); err == nil {
		t.Error("declaration-violating executor should fail generation")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	f := newFixture(t)
	g := NewGenerator(f.ont, f.pool)
	a, _, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := g.Generate(f.getAccession())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic sizes")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("example %d differs across runs", i)
		}
	}
}

func TestReportCoverageEdgeCases(t *testing.T) {
	r := &Report{
		InputPartitions:  map[string][]string{},
		OutputPartitions: map[string][]string{},
		CoveredInput:     map[string][]string{},
		CoveredOutput:    map[string][]string{},
	}
	if r.Coverage() != 1 || r.InputCoverage() != 1 || r.OutputCoverage() != 1 {
		t.Error("empty report should have coverage 1")
	}
	if !r.FullOutputCoverage() {
		t.Error("vacuous full coverage")
	}
}

func TestValuesPerPartitionProbing(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 4; i++ {
		f.pool.MustAdd("DNASequence", typesys.Str(fmt.Sprintf("ACGT%d", i)), "")
	}
	m := &module.Module{
		ID: "dna", Name: "DNAOnly",
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "DNASequence"}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "Accession"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": in["seq"]}, nil
	}))
	g := NewGenerator(f.ont, f.pool)
	g.ValuesPerPartition = 3
	set, rep, err := g.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 || rep.TotalCombinations != 3 {
		t.Errorf("examples=%d combos=%d, want 3", len(set), rep.TotalCombinations)
	}
}
