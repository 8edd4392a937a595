package instances

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/ontology"
	"dexa/internal/typesys"
)

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Sequence", "", "Data")
	o.MustAddConcept("DNA", "", "Sequence")
	o.MustAddConcept("RNA", "", "Sequence")
	o.MustAddConcept("Protein", "", "Sequence")
	o.MustAddConcept("Accession", "", "Data")
	return o
}

func TestAddAndLen(t *testing.T) {
	p := NewPool(testOntology(t))
	p.MustAdd("DNA", typesys.Str("ACGT"), "s1")
	p.MustAdd("DNA", typesys.Str("TTTT"), "s2")
	p.MustAdd("DNA", typesys.Str("ACGT"), "s3") // duplicate value, collapsed
	p.MustAdd("RNA", typesys.Str("ACGU"), "s4")
	if p.Len() != 3 {
		t.Errorf("Len = %d, want 3", p.Len())
	}
	if err := p.Add("Nope", typesys.Str("x"), ""); err == nil {
		t.Error("unknown concept should fail")
	}
	if err := p.Add("DNA", nil, ""); err == nil {
		t.Error("nil value should fail")
	}
	if got := p.Concepts(); !reflect.DeepEqual(got, []string{"DNA", "RNA"}) {
		t.Errorf("Concepts = %v", got)
	}
}

func TestDirect(t *testing.T) {
	p := NewPool(testOntology(t))
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("Sequence", typesys.Str("NNNN"), "")
	p.MustAdd("Protein", typesys.Str("MKT"), "")
	p.MustAdd("Accession", typesys.Str("P12345"), "")

	if got := p.Direct("DNA"); len(got) != 1 || !got[0].Value.Equal(typesys.Str("ACGT")) {
		t.Errorf("Direct(DNA) = %v", got)
	}
}

func TestRealization(t *testing.T) {
	p := NewPool(testOntology(t))
	p.MustAdd("Sequence", typesys.Str("NNNN"), "")
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("DNA", typesys.Intv(7), "") // wrong grounding for string params
	p.MustAdd("DNA", typesys.Str("GGCC"), "")

	// Realization of Sequence must be a direct Sequence instance, never a
	// DNA instance.
	in, ok := p.Realization("Sequence", typesys.StringType, 0)
	if !ok || !in.Value.Equal(typesys.Str("NNNN")) {
		t.Errorf("Realization(Sequence, 0) = %v, %v", in, ok)
	}
	if _, ok := p.Realization("Sequence", typesys.StringType, 1); ok {
		t.Error("only one Sequence realization exists")
	}
	// Structural grounding filter.
	in, ok = p.Realization("DNA", typesys.StringType, 1)
	if !ok || !in.Value.Equal(typesys.Str("GGCC")) {
		t.Errorf("Realization(DNA, string, 1) = %v, %v", in, ok)
	}
	in, ok = p.Realization("DNA", typesys.IntType, 0)
	if !ok || !in.Value.Equal(typesys.Intv(7)) {
		t.Errorf("Realization(DNA, int, 0) = %v, %v", in, ok)
	}
	if _, ok := p.Realization("DNA", typesys.StringType, -1); ok {
		t.Error("negative index")
	}
	if _, ok := p.Realization("RNA", typesys.StringType, 0); ok {
		t.Error("no RNA instances")
	}
}

func TestRealizationDeterminism(t *testing.T) {
	p := NewPool(testOntology(t))
	for i := 0; i < 10; i++ {
		p.MustAdd("DNA", typesys.Str(fmt.Sprintf("SEQ%d", i)), "")
	}
	a, _ := p.Realization("DNA", typesys.StringType, 3)
	b, _ := p.Realization("DNA", typesys.StringType, 3)
	if !a.Value.Equal(b.Value) {
		t.Error("Realization must be deterministic")
	}
}

func TestClassify(t *testing.T) {
	p := NewPool(testOntology(t))
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("Sequence", typesys.Str("NNNN"), "")

	if got := p.Classify("Sequence", typesys.Str("ACGT")); !reflect.DeepEqual(got, []string{"DNA"}) {
		t.Errorf("Classify(ACGT) = %v", got)
	}
	if got := p.Classify("Sequence", typesys.Str("NNNN")); !reflect.DeepEqual(got, []string{"Sequence"}) {
		t.Errorf("Classify(NNNN) = %v", got)
	}
	if got := p.Classify("Sequence", typesys.Str("unknown")); got != nil {
		t.Errorf("Classify(unknown) = %v", got)
	}
	if got := p.Classify("Nope", typesys.Str("x")); got != nil {
		t.Errorf("Classify over unknown root = %v", got)
	}
	if got := p.Classify("Sequence", nil); got != nil {
		t.Errorf("Classify(nil) = %v", got)
	}
	// DNA value must not be classified when searching under a sibling root.
	if got := p.Classify("Accession", typesys.Str("ACGT")); got != nil {
		t.Errorf("Classify under wrong root = %v", got)
	}
}

func TestClassifierFallback(t *testing.T) {
	p := NewPool(testOntology(t))
	err := p.RegisterClassifier("Sequence", func(v typesys.Value) string {
		s, ok := v.(typesys.StringValue)
		if !ok {
			return ""
		}
		for _, r := range string(s) {
			if r != 'A' && r != 'C' && r != 'G' && r != 'T' {
				return "Protein"
			}
		}
		return "DNA"
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Classify("Sequence", typesys.Str("ACGT")); !reflect.DeepEqual(got, []string{"DNA"}) {
		t.Errorf("classifier fallback = %v", got)
	}
	if got := p.Classify("Sequence", typesys.Str("MKTW")); !reflect.DeepEqual(got, []string{"Protein"}) {
		t.Errorf("classifier fallback = %v", got)
	}
	// Pool hit takes precedence over the classifier.
	p.MustAdd("RNA", typesys.Str("ACGT"), "")
	if got := p.Classify("Sequence", typesys.Str("ACGT")); !reflect.DeepEqual(got, []string{"RNA"}) {
		t.Errorf("pool hit should win, got %v", got)
	}
	if err := p.RegisterClassifier("Nope", nil); err == nil {
		t.Error("unknown concept should fail")
	}
}

func TestPoolConcurrency(t *testing.T) {
	p := NewPool(testOntology(t))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.MustAdd("DNA", typesys.Str(fmt.Sprintf("G%dI%d", g, i)), "")
				p.Realization("DNA", typesys.StringType, i%10)
				p.Classify("Sequence", typesys.Str("x"))
				p.Concepts()
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 400 {
		t.Errorf("Len = %d, want 400", p.Len())
	}
}
