package search

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/typesys"
)

func testOntology() *ontology.Ontology {
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Prot", "", "Seq")
	o.MustAddConcept("Acc", "", "Data")
	return o
}

// mod builds an unbound module with one input/output pair.
func mod(id, name, desc, inSem, outSem string) *module.Module {
	return &module.Module{
		ID: id, Name: name, Description: desc, Provider: "testlab",
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: inSem}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: outSem}},
	}
}

func ex(in, out string) dataexample.Example {
	return dataexample.Example{
		Inputs:  map[string]typesys.Value{"seq": typesys.Str(in)},
		Outputs: map[string]typesys.Value{"acc": typesys.Str(out)},
	}
}

func TestFingerprint(t *testing.T) {
	if got := Fingerprint(nil); got != "" {
		t.Fatalf("empty set fingerprint = %q, want empty", got)
	}
	a := dataexample.Set{ex("ACGT", "X:1"), ex("TTTT", "X:2")}
	b := dataexample.Set{ex("TTTT", "X:2"), ex("ACGT", "X:1")} // order-insensitive
	c := dataexample.Set{ex("ACGT", "Y:1"), ex("TTTT", "X:2")}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("reordered sets fingerprint differently")
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("behaviorally different sets share a fingerprint")
	}
}

// TestFingerprintKeyedMatchesRaw: the keyed form hashes the keys a
// KeyedSet already holds and must name the same class as the raw form,
// for string-only and symbol-interned sets alike.
func TestFingerprintKeyedMatchesRaw(t *testing.T) {
	tab := dataexample.NewSymbolTable()
	for _, set := range []dataexample.Set{
		nil,
		{ex("ACGT", "X:1")},
		{ex("ACGT", "X:1"), ex("TTTT", "X:2")},
		{ex("TTTT", "X:2"), ex("ACGT", "X:1"), ex("ACGT", "X:1")},
	} {
		want := Fingerprint(set)
		if got := FingerprintKeyed(set.Keyed()); got != want {
			t.Errorf("FingerprintKeyed(Keyed(%d examples)) = %q, want %q", len(set), got, want)
		}
		if got := FingerprintKeyed(set.KeyedInterned(tab)); got != want {
			t.Errorf("FingerprintKeyed(KeyedInterned(%d examples)) = %q, want %q", len(set), got, want)
		}
	}
	if got := FingerprintKeyed(nil); got != "" {
		t.Errorf("nil keyed set fingerprint = %q, want empty", got)
	}
}

// TestIncrementalEqualsFresh: an index maintained by surgical updates and
// removals must be indistinguishable — stats and query results — from an
// index built fresh over the final state.
func TestIncrementalEqualsFresh(t *testing.T) {
	o := testOntology()
	mods := []*module.Module{
		mod("align", "sequence aligner", "aligns protein sequences", "Prot", "Acc"),
		mod("blast", "blast search", "homology search over proteins", "Prot", "Acc"),
		mod("trans", "transcriber", "dna to rna", "DNA", "Seq"),
		mod("fetch", "record fetcher", "fetches accession records", "Acc", "Data"),
	}
	sets := map[string]dataexample.Set{
		"align": {ex("MKTW", "hit1")},
		"blast": {ex("MKTW", "hit1")}, // same behavior class as align
		"trans": {ex("ACGT", "ACGU")},
	}

	incremental := New(o)
	// Churn: index everything, remove some, re-add with changed sets.
	for _, m := range mods {
		incremental.Update(m, nil, 0)
	}
	incremental.Remove("blast")
	incremental.Remove("missing") // no-op
	for i, m := range mods {
		incremental.Update(m, sets[m.ID], uint64(i+1))
	}
	incremental.Remove("fetch")
	fetchSet := dataexample.Set{ex("P1", "rec")}
	incremental.Update(mods[3], fetchSet, 9)
	sets["fetch"] = fetchSet

	fresh := New(o)
	for i, m := range mods {
		fresh.Update(m, sets[m.ID], uint64(i+1))
	}
	fresh.docs["fetch"].version = 9

	is, fs := incremental.Stats(), fresh.Stats()
	is.Generation, fs.Generation = 0, 0
	is.Updates, fs.Updates = 0, 0
	is.Queries, fs.Queries = 0, 0
	if !reflect.DeepEqual(is, fs) {
		t.Fatalf("incremental stats %+v != fresh stats %+v", is, fs)
	}

	for _, raw := range []string{
		"protein", "search", "concept:Seq", "concept:Prot", "behaves:align", "blast homology", "concept:Acc fetch",
	} {
		q, err := ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		ih, _ := incremental.Match(q)
		fh, _ := fresh.Match(q)
		if !reflect.DeepEqual(ih, fh) {
			t.Errorf("query %q: incremental %+v != fresh %+v", raw, ih, fh)
		}
	}
}

// TestRemoveDropsFromResults: the lifecycle contract — a removed module
// disappears from every query family immediately.
func TestRemoveDropsFromResults(t *testing.T) {
	o := testOntology()
	ix := New(o)
	ix.Update(mod("align", "aligner", "", "Prot", "Acc"), dataexample.Set{ex("M", "h")}, 1)
	ix.Update(mod("blast", "blaster", "", "Prot", "Acc"), dataexample.Set{ex("M", "h")}, 1)
	gen := ix.Generation()
	ix.Remove("align")
	if ix.Generation() != gen+1 {
		t.Fatalf("generation %d after remove, want %d", ix.Generation(), gen+1)
	}
	for _, raw := range []string{"align", "concept:Prot", "behaves:blast"} {
		q, _ := ParseQuery(raw)
		hits, _ := ix.Match(q)
		for _, h := range hits {
			if h.ID == "align" {
				t.Errorf("query %q still returns removed module align", raw)
			}
		}
	}
	// behaves:align can no longer resolve locally — no hits rather than
	// stale ones.
	q, _ := ParseQuery("behaves:align")
	if hits, _ := ix.Match(q); len(hits) != 0 {
		t.Errorf("behaves:<removed> returned %d hits, want 0", len(hits))
	}
}

// TestSearchIndexConcurrent hammers queries against concurrent updates
// and removals; run under -race by make race-search.
func TestSearchIndexConcurrent(t *testing.T) {
	o := testOntology()
	ix := New(o)
	stop := make(chan struct{})
	var churners sync.WaitGroup
	for w := 0; w < 4; w++ {
		churners.Add(1)
		go func(w int) {
			defer churners.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("mod-%d-%d", w, i%8)
				m := mod(id, "churn module", "concurrent churn", "DNA", "Acc")
				if i%3 == 2 {
					ix.Remove(id)
				} else {
					ix.Update(m, dataexample.Set{ex(id, "out")}, uint64(i))
				}
			}
		}(w)
	}
	var queriers sync.WaitGroup
	for r := 0; r < 4; r++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 500; i++ {
				for _, raw := range []string{"churn", "concept:DNA", "behaves:mod-0-0"} {
					q, _ := ParseQuery(raw)
					hits, _ := ix.Match(q)
					for j := 1; j < len(hits); j++ {
						a, b := hits[j-1], hits[j]
						if a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
							t.Errorf("unsorted hits: %v then %v", a, b)
							return
						}
					}
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	churners.Wait()
	_ = ix.Stats()
}

// TestChangedWakesOnMutation: Changed(gen) stays open while the index
// holds gen, is closed by the next Update or effective Remove (a no-op
// Remove leaves it open), and is already closed for a generation the
// index has moved past. Two indexes at the same generation carry
// different nonces.
func TestChangedWakesOnMutation(t *testing.T) {
	o := testOntology()
	ix := New(o)
	isClosed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	gen := ix.Generation()
	ch := ix.Changed(gen)
	if isClosed(ch) {
		t.Fatal("Changed closed before any mutation")
	}
	ix.Remove("nosuchmodule")
	if isClosed(ch) {
		t.Fatal("a Remove of an unindexed module closed Changed")
	}
	ix.Update(mod("align", "aligner", "", "Prot", "Acc"), dataexample.Set{ex("M", "h")}, 1)
	if !isClosed(ch) {
		t.Fatal("Update left Changed open")
	}
	if !isClosed(ix.Changed(gen)) {
		t.Fatal("Changed of a past generation is open")
	}
	ch = ix.Changed(ix.Generation())
	ix.Remove("align")
	if !isClosed(ch) {
		t.Fatal("Remove left Changed open")
	}

	other := New(o)
	other.Update(mod("align", "aligner", "", "Prot", "Acc"), dataexample.Set{ex("M", "h")}, 1)
	other.Remove("align")
	if other.Generation() != ix.Generation() || other.Nonce() == ix.Nonce() || ix.Nonce() == "" {
		t.Fatalf("two indexes at generation %d/%d share nonce %q/%q", ix.Generation(), other.Generation(), ix.Nonce(), other.Nonce())
	}
}
