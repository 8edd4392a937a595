package ontology

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// dagFixture builds a multi-parent DAG exercising every cache code path:
//
//	      Root
//	     /    \
//	   Seq    Ann(abstract)
//	  /   \   /  \
//	DNA   Shared  GO
//	 |      |
//	cDNA  Leafy
func dagFixture(t testing.TB) *Ontology {
	t.Helper()
	o := New("cache-test")
	o.MustAddConcept("Root", "")
	o.MustAddConcept("Seq", "", "Root")
	o.MustAddConcept("Ann", "", "Root")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Shared", "", "Seq", "Ann")
	o.MustAddConcept("GO", "", "Ann")
	o.MustAddConcept("cDNA", "", "DNA")
	o.MustAddConcept("Leafy", "", "Shared")
	if err := o.MarkAbstract("Ann"); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestCacheMatchesWalks cross-checks every cached answer against the
// uncached graph walk on all concept pairs.
func TestCacheMatchesWalks(t *testing.T) {
	o := dagFixture(t)
	ids := append(o.Concepts(), "Nope")
	for _, sup := range ids {
		for _, sub := range ids {
			if got, want := o.Subsumes(sup, sub), o.walkSubsumes(sup, sub); got != want {
				t.Errorf("Subsumes(%s, %s) = %v, walk says %v", sup, sub, got, want)
			}
		}
	}
	// Reference traversals computed directly from the struct pointers.
	for _, id := range o.Concepts() {
		c := o.concepts[id]
		wantDesc := walkClosure(c, func(c *Concept) []*Concept { return c.children })
		if got := o.Descendants(id); !reflect.DeepEqual(got, wantDesc) {
			t.Errorf("Descendants(%s) = %v, want %v", id, got, wantDesc)
		}
		wantAnc := walkClosure(c, func(c *Concept) []*Concept { return c.parents })
		if got := o.AncestorsView(id); !reflect.DeepEqual(got, wantAnc) {
			t.Errorf("Ancestors(%s) = %v, want %v", id, got, wantAnc)
		}
	}
	if o.Descendants("Nope") != nil || o.AncestorsView("Nope") != nil {
		t.Error("unknown concept must yield nil closures")
	}
	if parts, _ := o.Partitions("Ann"); !reflect.DeepEqual(parts, []string{"GO", "Leafy", "Shared"}) {
		t.Errorf("Partitions(Ann) = %v (abstract root must be excluded)", parts)
	}
	if leaves, _ := o.LeafPartitions("Seq"); !reflect.DeepEqual(leaves, []string{"Leafy", "cDNA"}) {
		t.Errorf("LeafPartitions(Seq) = %v", leaves)
	}
	if _, err := o.Partitions("Nope"); err == nil {
		t.Error("Partitions of unknown concept must error")
	}
}

func walkClosure(c *Concept, next func(*Concept) []*Concept) []string {
	seen := map[*Concept]bool{}
	var walk func(*Concept)
	walk = func(c *Concept) {
		for _, n := range next(c) {
			if !seen[n] {
				seen[n] = true
				walk(n)
			}
		}
	}
	walk(c)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n.ID)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCacheInvalidationOnMutation verifies that every mutator discards the
// closure so post-build mutation is visible to subsequent queries.
func TestCacheInvalidationOnMutation(t *testing.T) {
	o := dagFixture(t)
	if !o.Subsumes("Seq", "cDNA") {
		t.Fatal("warm-up query failed") // also builds the cache
	}

	// AddConcept after the cache was built.
	o.MustAddConcept("mRNA", "", "Seq")
	if !o.Subsumes("Seq", "mRNA") {
		t.Error("cache kept stale closure after AddConcept")
	}
	if parts, _ := o.Partitions("Seq"); !contains(parts, "mRNA") {
		t.Errorf("Partitions(Seq) = %v, missing new concept", parts)
	}

	// AddSubsumption after rebuild.
	if !o.Subsumes("Root", "GO") {
		t.Fatal("warm-up")
	}
	if err := o.AddSubsumption("mRNA", "Ann"); err != nil {
		t.Fatal(err)
	}
	if !o.Subsumes("Ann", "mRNA") {
		t.Error("cache kept stale closure after AddSubsumption")
	}

	// MarkAbstract flips partition membership.
	if err := o.MarkAbstract("mRNA"); err != nil {
		t.Fatal(err)
	}
	if parts, _ := o.Partitions("Seq"); contains(parts, "mRNA") {
		t.Errorf("Partitions(Seq) = %v, abstract concept must disappear", parts)
	}

	// Direct field mutation needs the explicit hook.
	c, _ := o.Concept("mRNA")
	c.Abstract = false
	o.InvalidateCaches()
	if parts, _ := o.Partitions("Seq"); !contains(parts, "mRNA") {
		t.Errorf("Partitions(Seq) = %v after InvalidateCaches", parts)
	}
}

// TestCacheResultsAreCopies ensures callers cannot corrupt the cache
// through a returned slice.
func TestCacheResultsAreCopies(t *testing.T) {
	o := dagFixture(t)
	d := o.Descendants("Seq")
	if len(d) == 0 {
		t.Fatal("no descendants")
	}
	d[0] = "CORRUPTED"
	if again := o.Descendants("Seq"); contains(again, "CORRUPTED") {
		t.Error("Descendants returned a shared slice")
	}
	p, _ := o.Partitions("Seq")
	p[0] = "CORRUPTED"
	if again, _ := o.Partitions("Seq"); contains(again, "CORRUPTED") {
		t.Error("Partitions returned a shared slice")
	}
}

// TestConcurrentReasoning hammers the lazily-built cache from many
// goroutines starting cold, backing the "concurrent reads are safe,
// including the first one" guarantee (run with -race).
func TestConcurrentReasoning(t *testing.T) {
	o := dagFixture(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !o.Subsumes("Root", "Leafy") || o.Subsumes("DNA", "GO") {
					errs <- "bad subsumption under concurrency"
					return
				}
				parts, err := o.Partitions("Seq")
				if err != nil || len(parts) == 0 {
					errs <- fmt.Sprintf("Partitions: %v %v", parts, err)
					return
				}
				if len(o.Descendants("Root")) != len(o.concepts)-1 {
					errs <- "bad descendant count"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
