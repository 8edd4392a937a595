package ontology

import (
	"reflect"
	"testing"
)

// buildMyGridFragment mirrors Figure 4 of the paper plus a record branch.
func buildMyGridFragment(t testing.TB) *Ontology {
	t.Helper()
	o := New("mygrid-fragment")
	o.MustAddConcept("BioinformaticsData", "Bioinformatics data")
	o.MustAddConcept("BioSequence", "Biological sequence", "BioinformaticsData")
	o.MustAddConcept("NucleotideSequence", "Nucleotide sequence", "BioSequence")
	o.MustAddConcept("DNASequence", "DNA sequence", "NucleotideSequence")
	o.MustAddConcept("RNASequence", "RNA sequence", "NucleotideSequence")
	o.MustAddConcept("ProtSequence", "Protein sequence", "BioSequence")
	o.MustAddConcept("Record", "Biological record", "BioinformaticsData")
	o.MustAddConcept("UniprotRecord", "Uniprot record", "Record")
	o.MustAddConcept("FastaRecord", "Fasta record", "Record")
	return o
}

func TestAddConceptErrors(t *testing.T) {
	o := New("t")
	if err := o.AddConcept("", ""); err == nil {
		t.Error("empty ID should fail")
	}
	o.MustAddConcept("A", "")
	if err := o.AddConcept("A", ""); err == nil {
		t.Error("duplicate should fail")
	}
	if err := o.AddConcept("B", "", "missing"); err == nil {
		t.Error("unknown parent should fail")
	}
}

func TestSubsumes(t *testing.T) {
	o := buildMyGridFragment(t)
	cases := []struct {
		sup, sub string
		want     bool
	}{
		{"BioSequence", "ProtSequence", true},
		{"BioSequence", "DNASequence", true},
		{"BioinformaticsData", "RNASequence", true},
		{"BioSequence", "BioSequence", true},
		{"ProtSequence", "BioSequence", false},
		{"ProtSequence", "DNASequence", false},
		{"Record", "DNASequence", false},
		{"Nope", "DNASequence", false},
		{"BioSequence", "Nope", false},
	}
	for _, c := range cases {
		if got := o.Subsumes(c.sup, c.sub); got != c.want {
			t.Errorf("Subsumes(%s, %s) = %v, want %v", c.sup, c.sub, got, c.want)
		}
	}
	if o.StrictlySubsumes("BioSequence", "BioSequence") {
		t.Error("StrictlySubsumes must exclude equality")
	}
	if !o.StrictlySubsumes("BioSequence", "RNASequence") {
		t.Error("StrictlySubsumes(BioSequence, RNASequence) should hold")
	}
}

func TestDescendantsAncestors(t *testing.T) {
	o := buildMyGridFragment(t)
	wantDesc := []string{"DNASequence", "NucleotideSequence", "ProtSequence", "RNASequence"}
	if got := o.Descendants("BioSequence"); !reflect.DeepEqual(got, wantDesc) {
		t.Errorf("Descendants = %v, want %v", got, wantDesc)
	}
	wantAnc := []string{"BioSequence", "BioinformaticsData", "NucleotideSequence"}
	if got := o.AncestorsView("DNASequence"); !reflect.DeepEqual(got, wantAnc) {
		t.Errorf("Ancestors = %v, want %v", got, wantAnc)
	}
	if o.Descendants("nope") != nil || o.AncestorsView("nope") != nil {
		t.Error("unknown concepts should return nil")
	}
	if got := o.Descendants("DNASequence"); len(got) != 0 {
		t.Errorf("leaf should have no descendants, got %v", got)
	}
}

func TestRootsLeavesDepth(t *testing.T) {
	o := buildMyGridFragment(t)
	if got := o.Roots(); !reflect.DeepEqual(got, []string{"BioinformaticsData"}) {
		t.Errorf("Roots = %v", got)
	}
	if !o.IsLeaf("DNASequence") || o.IsLeaf("BioSequence") || o.IsLeaf("nope") {
		t.Error("IsLeaf misbehaves")
	}
	for id, want := range map[string]int{"BioinformaticsData": 0, "BioSequence": 1, "DNASequence": 3, "nope": -1} {
		if got := o.Depth(id); got != want {
			t.Errorf("Depth(%s) = %d, want %d", id, got, want)
		}
	}
}

func TestDAGMultipleParents(t *testing.T) {
	o := buildMyGridFragment(t)
	// FastaRecord is also a kind of BioSequence representation in some
	// annotation schemes; model via an extra edge.
	if err := o.AddSubsumption("FastaRecord", "BioSequence"); err != nil {
		t.Fatalf("AddSubsumption: %v", err)
	}
	if !o.Subsumes("BioSequence", "FastaRecord") || !o.Subsumes("Record", "FastaRecord") {
		t.Error("multi-parent subsumption broken")
	}
	if err := o.AddSubsumption("FastaRecord", "BioSequence"); err == nil {
		t.Error("duplicate edge should fail")
	}
	if err := o.AddSubsumption("FastaRecord", "FastaRecord"); err == nil {
		t.Error("self edge should fail")
	}
	if err := o.AddSubsumption("BioinformaticsData", "FastaRecord"); err == nil {
		t.Error("cycle should be rejected")
	}
	if err := o.AddSubsumption("x", "Record"); err == nil {
		t.Error("unknown sub should fail")
	}
	if err := o.AddSubsumption("Record", "x"); err == nil {
		t.Error("unknown sup should fail")
	}
	if err := o.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPartitions(t *testing.T) {
	o := buildMyGridFragment(t)
	got, err := o.Partitions("BioSequence")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BioSequence", "DNASequence", "NucleotideSequence", "ProtSequence", "RNASequence"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Partitions = %v, want %v", got, want)
	}
	// Abstract concepts are excluded (covered by their subconcepts).
	if err := o.MarkAbstract("NucleotideSequence"); err != nil {
		t.Fatal(err)
	}
	got, err = o.Partitions("BioSequence")
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"BioSequence", "DNASequence", "ProtSequence", "RNASequence"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Partitions with abstract = %v, want %v", got, want)
	}
	if _, err := o.Partitions("nope"); err == nil {
		t.Error("unknown concept should error")
	}
	// Leaf concept partitions to itself.
	got, err = o.Partitions("DNASequence")
	if err != nil || !reflect.DeepEqual(got, []string{"DNASequence"}) {
		t.Errorf("leaf Partitions = %v, %v", got, err)
	}
}

func TestLeafPartitions(t *testing.T) {
	o := buildMyGridFragment(t)
	got, err := o.LeafPartitions("BioSequence")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DNASequence", "ProtSequence", "RNASequence"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LeafPartitions = %v, want %v", got, want)
	}
	got, _ = o.LeafPartitions("DNASequence")
	if !reflect.DeepEqual(got, []string{"DNASequence"}) {
		t.Errorf("leaf LeafPartitions = %v", got)
	}
	if _, err := o.LeafPartitions("nope"); err == nil {
		t.Error("unknown concept should error")
	}
}

func TestMostSpecific(t *testing.T) {
	o := buildMyGridFragment(t)
	got := o.MostSpecific([]string{"BioSequence", "DNASequence", "NucleotideSequence"})
	if !reflect.DeepEqual(got, []string{"DNASequence"}) {
		t.Errorf("MostSpecific = %v", got)
	}
	got = o.MostSpecific([]string{"DNASequence", "ProtSequence", "bogus"})
	if !reflect.DeepEqual(got, []string{"DNASequence", "ProtSequence"}) {
		t.Errorf("MostSpecific incomparable = %v", got)
	}
}

func TestMarkAbstractUnknown(t *testing.T) {
	o := New("t")
	if err := o.MarkAbstract("x"); err == nil {
		t.Error("unknown concept should error")
	}
}

func TestMustAddConceptPanics(t *testing.T) {
	o := New("t")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	o.MustAddConcept("A", "", "missing-parent")
}
