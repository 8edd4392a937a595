package ontology

import (
	"sort"
	"testing"
)

// TestClosureViews: the no-copy view accessors must expose exactly the
// same closure the copying accessors return — the index uses them on
// every feasibility query, so they must not allocate fresh slices (that
// is their whole point) nor diverge in content.
func TestClosureViews(t *testing.T) {
	o := New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Prot", "", "Seq")

	asSet := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	for _, id := range []string{"Data", "Seq", "DNA", "Prot"} {
		wantUp := asSet(o.AncestorsView(id))
		gotUp := asSet(o.AncestorsView(id))
		if len(wantUp) != len(gotUp) {
			t.Errorf("%s: ancestors view = %v, want %v", id, gotUp, wantUp)
		}
		for c := range wantUp {
			if !gotUp[c] {
				t.Errorf("%s: ancestors view missing %s", id, c)
			}
		}
		wantDown := asSet(o.Descendants(id))
		gotDown := asSet(o.DescendantsView(id))
		if len(wantDown) != len(gotDown) {
			t.Errorf("%s: descendants view = %v, want %v", id, gotDown, wantDown)
		}
		for c := range wantDown {
			if !gotDown[c] {
				t.Errorf("%s: descendants view missing %s", id, c)
			}
		}
	}
	// Unknown concepts have empty closures.
	if len(o.AncestorsView("nope")) != 0 || len(o.DescendantsView("nope")) != 0 {
		t.Error("unknown concept must have empty closure views")
	}
	// Repeated calls return the same cached backing array (no per-call
	// allocation) — compare first elements' identity via sorted stability.
	a := o.AncestorsView("DNA")
	b := o.AncestorsView("DNA")
	if len(a) != len(b) {
		t.Fatal("view changed between calls")
	}
	sort.Strings(append([]string{}, a...)) // views themselves must not be mutated
	if len(a) > 0 && &a[0] != &b[0] {
		t.Error("view is not cached: fresh backing array per call")
	}
}
