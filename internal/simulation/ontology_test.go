package simulation

import (
	"reflect"
	"testing"

	"dexa/internal/ontology"
)

func TestBuildOntologyValidates(t *testing.T) {
	o := BuildOntology()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(o.Concepts()) < 60 {
		t.Errorf("ontology has only %d concepts", len(o.Concepts()))
	}
	if got := o.Roots(); len(got) != 1 || got[0] != CRoot {
		t.Errorf("roots = %v", got)
	}
}

// TestBuildOntologySerialisationRoundTrip: the myGrid-like ontology
// survives its own text format — partitions (the load-bearing artefact)
// included.
func TestBuildOntologySerialisationRoundTrip(t *testing.T) {
	o := BuildOntology()
	o2, err := ontology.ParseString(o.String())
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, o.String())
	}
	if len(o2.Concepts()) != len(o.Concepts()) {
		t.Fatalf("concept count changed: %d vs %d", len(o2.Concepts()), len(o.Concepts()))
	}
	for _, concept := range o.Concepts() {
		p1, err1 := o.Partitions(concept)
		p2, err2 := o2.Partitions(concept)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("partition error mismatch for %s", concept)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Errorf("partitions of %s changed: %v vs %v", concept, p1, p2)
		}
	}
}

func TestClassifyValueSpotChecks(t *testing.T) {
	u := universe(t)
	// Every seed-pool instance classifies into its own concept (or the
	// classifier abstains) — the realization property, checked over the
	// entire pool rather than per generator.
	for _, concept := range u.Pool.Concepts() {
		for _, in := range u.Pool.Direct(concept) {
			got := ClassifyValue(in.Value)
			if got != "" && got != concept {
				// Provenance-harvested values may legitimately sit under a
				// broader parameter concept; only strictly wrong placements
				// (classifier says a non-subconcept) are bugs.
				if !u.Ont.Subsumes(concept, got) {
					t.Errorf("instance under %s classifies as non-subsumed %s (%s)", concept, got, truncate([]string{in.Value.String()}, 1))
				}
			}
		}
	}
}
