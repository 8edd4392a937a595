package ontology

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomOntology builds a random DAG ontology: n concepts, each attached
// to 1-2 random earlier parents, with ~20% marked abstract (never the
// root, so partitions stay non-empty at the top).
func randomOntology(r *rand.Rand, n int) *Ontology {
	o := New("random")
	o.MustAddConcept("c0", "")
	for i := 1; i < n; i++ {
		id := fmt.Sprintf("c%d", i)
		p1 := fmt.Sprintf("c%d", r.Intn(i))
		o.MustAddConcept(id, "", p1)
		if r.Intn(3) == 0 {
			p2 := fmt.Sprintf("c%d", r.Intn(i))
			// Extra DAG edge; ignore duplicates/cycles (AddSubsumption
			// rejects them, which is itself part of the property).
			_ = o.AddSubsumption(id, p2)
		}
		if r.Intn(5) == 0 {
			_ = o.MarkAbstract(id)
		}
	}
	return o
}

func pick(r *rand.Rand, o *Ontology) string {
	cs := o.Concepts()
	return cs[r.Intn(len(cs))]
}

func TestSubsumptionIsPartialOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	prop := func() bool {
		o := randomOntology(r, 3+r.Intn(25))
		a, b, c := pick(r, o), pick(r, o), pick(r, o)
		// Reflexivity.
		if !o.Subsumes(a, a) {
			return false
		}
		// Antisymmetry: mutual subsumption implies equality (acyclic DAG).
		if o.Subsumes(a, b) && o.Subsumes(b, a) && a != b {
			return false
		}
		// Transitivity.
		if o.Subsumes(a, b) && o.Subsumes(b, c) && !o.Subsumes(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPartitionsConsistencyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	prop := func() bool {
		o := randomOntology(r, 3+r.Intn(25))
		c := pick(r, o)
		parts, err := o.Partitions(c)
		if err != nil {
			return false
		}
		leaves, err := o.LeafPartitions(c)
		if err != nil {
			return false
		}
		inParts := map[string]bool{}
		for _, p := range parts {
			// Every partition is subsumed by the partitioned concept and is
			// not abstract.
			if !o.Subsumes(c, p) {
				return false
			}
			pc, _ := o.Concept(p)
			if pc.Abstract {
				return false
			}
			inParts[p] = true
		}
		// Leaf partitions are a subset of realization partitions (leaves
		// are never abstract in our generator? they can be — skip those).
		for _, l := range leaves {
			lc, _ := o.Concept(l)
			if !lc.Abstract && !inParts[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestDescendantAncestorDualityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	prop := func() bool {
		o := randomOntology(r, 3+r.Intn(20))
		a, b := pick(r, o), pick(r, o)
		// b ∈ Descendants(a) ⇔ a ∈ Ancestors(b).
		inDesc := contains(o.Descendants(a), b)
		inAnc := contains(o.AncestorsView(b), a)
		if inDesc != inAnc {
			return false
		}
		// And both are equivalent to strict subsumption.
		return inDesc == o.StrictlySubsumes(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestSerialisationPreservesSemanticsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	prop := func() bool {
		o := randomOntology(r, 3+r.Intn(20))
		o2, err := ParseString(o.String())
		if err != nil {
			return false
		}
		if len(o2.concepts) != len(o.concepts) {
			return false
		}
		// Subsumption is preserved on sampled pairs.
		for i := 0; i < 10; i++ {
			a, b := pick(r, o), pick(r, o)
			if o.Subsumes(a, b) != o2.Subsumes(a, b) {
				return false
			}
		}
		// Abstract flags preserved.
		for _, id := range o.Concepts() {
			c1, _ := o.Concept(id)
			c2, ok := o2.Concept(id)
			if !ok || c1.Abstract != c2.Abstract {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomOntologiesValidate(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 100; i++ {
		o := randomOntology(r, 2+r.Intn(40))
		if err := o.Validate(); err != nil {
			t.Fatalf("random ontology invalid: %v\n%s", err, o)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
