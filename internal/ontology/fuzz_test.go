package ontology

import (
	"strings"
	"testing"
)

// FuzzParseOntology checks the textual ontology parser never panics, and
// that everything it accepts validates, serialises, and re-parses into a
// semantically identical ontology.
func FuzzParseOntology(f *testing.F) {
	seeds := []string{
		sampleDoc,
		"A",
		"A\n  B\n  C\nsubsume C B",
		"ontology x\nA : label *abstract\n  B",
		"# only a comment\n",
		"A\n    B",       // bad indent
		"A\nsubsume A A", // self edge
		"A B",            // space in ID
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		o, err := ParseString(doc)
		if err != nil {
			return
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("accepted ontology fails validation: %v\ninput:\n%s", err, doc)
		}
		text := o.String()
		o2, err := ParseString(text)
		if err != nil {
			t.Fatalf("serialisation does not re-parse: %v\noutput:\n%s", err, text)
		}
		if len(o2.concepts) != len(o.concepts) {
			t.Fatalf("round trip changed size: %d vs %d", len(o.concepts), len(o2.concepts))
		}
		for _, id := range o.Concepts() {
			a, _ := o.Concept(id)
			b, ok := o2.Concept(id)
			if !ok || a.Abstract != b.Abstract || a.Label != b.Label {
				t.Fatalf("concept %q changed across round trip", id)
			}
			if strings.Join(parentIDs(a), ",") != strings.Join(parentIDs(b), ",") {
				t.Fatalf("parents of %q changed: %v vs %v", id, parentIDs(a), parentIDs(b))
			}
		}
	})
}
