package ontology

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

const sampleDoc = `# myGrid fragment (Figure 4)
ontology mygrid
BioinformaticsData : Bioinformatics data
  BioSequence : Biological sequence
    NucleotideSequence *abstract
      DNASequence : DNA sequence
      RNASequence
    ProtSequence : Protein sequence
  Record
    UniprotRecord
    FastaRecord
subsume FastaRecord BioSequence
`

func TestParseSample(t *testing.T) {
	o, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if o.name != "mygrid" {
		t.Errorf("name = %q", o.name)
	}
	if len(o.concepts) != 9 {
		t.Errorf("Len = %d, want 9", len(o.concepts))
	}
	c, ok := o.Concept("DNASequence")
	if !ok || c.Label != "DNA sequence" {
		t.Errorf("DNASequence = %+v, %v", c, ok)
	}
	ns, _ := o.Concept("NucleotideSequence")
	if !ns.Abstract {
		t.Error("NucleotideSequence should be abstract")
	}
	if !o.Subsumes("BioSequence", "FastaRecord") {
		t.Error("subsume directive not applied")
	}
	if !o.Subsumes("Record", "FastaRecord") {
		t.Error("tree edge lost")
	}
	parts, err := o.Partitions("BioSequence")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BioSequence", "DNASequence", "FastaRecord", "ProtSequence", "RNASequence"}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("Partitions = %v, want %v", parts, want)
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	o, err := ParseString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	text := o.String()
	o2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse of\n%s\nfailed: %v", text, err)
	}
	if len(o2.concepts) != len(o.concepts) {
		t.Fatalf("round trip lost concepts: %d vs %d", len(o2.concepts), len(o.concepts))
	}
	for _, id := range o.Concepts() {
		a, _ := o.Concept(id)
		b, ok := o2.Concept(id)
		if !ok {
			t.Fatalf("concept %s lost", id)
		}
		if a.Label != b.Label || a.Abstract != b.Abstract {
			t.Errorf("concept %s changed: %+v vs %+v", id, a, b)
		}
		if !reflect.DeepEqual(parentIDs(a), parentIDs(b)) {
			t.Errorf("concept %s parents changed: %v vs %v", id, parentIDs(a), parentIDs(b))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"A\n   B",             // odd indent
		"A\n    B",            // indentation jump
		"A\nA",                // duplicate
		"subsume A",           // malformed directive
		"subsume A B",         // unknown concepts
		"A B : label",         // space in ID
		"A\nsubsume A A",      // self edge
		"A\n  B\nsubsume A B", // cycle
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q): expected error", s)
		}
	}
}

func TestParseBlankAndComments(t *testing.T) {
	o, err := ParseString("\n# c\n\nA : root\n\n  B\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.concepts) != 2 || !o.Subsumes("A", "B") {
		t.Errorf("unexpected ontology: %s", o)
	}
}

func TestWriteContainsDirectives(t *testing.T) {
	o, _ := ParseString(sampleDoc)
	text := o.String()
	if !strings.Contains(text, "subsume FastaRecord BioSequence") {
		t.Errorf("serialisation lost DAG edge:\n%s", text)
	}
	if !strings.Contains(text, "*abstract") {
		t.Errorf("serialisation lost abstract flag:\n%s", text)
	}
}

// parentIDs returns the IDs of c's direct superconcepts, sorted.
func parentIDs(c *Concept) []string {
	ids := make([]string, len(c.parents))
	for i, p := range c.parents {
		ids[i] = p.ID
	}
	sort.Strings(ids)
	return ids
}
