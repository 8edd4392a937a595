package search_test

import (
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/search"
	"dexa/internal/simulation"
)

var (
	catalogOnce sync.Once
	catalogU    *simulation.Universe
	catalogSets map[string]dataexample.Set
)

// annotatedCatalog builds the 252-module universe and annotates every
// module once per test binary. The fixture is read-only.
func annotatedCatalog(tb testing.TB) (*simulation.Universe, map[string]dataexample.Set) {
	tb.Helper()
	catalogOnce.Do(func() {
		catalogU = simulation.NewUniverse()
		catalogSets = map[string]dataexample.Set{}
		for _, e := range catalogU.Catalog.Entries {
			if s, _, err := catalogU.Gen.Generate(e.Module); err == nil && len(s) > 0 {
				catalogSets[e.Module.ID] = s
			}
		}
	})
	return catalogU, catalogSets
}

// buildIndex indexes every catalog module with its annotation.
func buildIndex(u *simulation.Universe, sets map[string]dataexample.Set) *search.Index {
	ix := search.New(u.Ont)
	for _, e := range u.Catalog.Entries {
		ix.Update(e.Module, sets[e.Module.ID], 0)
	}
	return ix
}

// TestCatalogQueryBattery runs six queries over the full 252-module
// annotated catalog: one per posting family (keyword TF-IDF, concept
// subsumption, behaviour fingerprint) plus mixed forms. Every query must
// match something, answer identically on repeat, answer identically
// from an index churned through Remove/Update, and reassemble its full
// ranking from limit-2 pages.
func TestCatalogQueryBattery(t *testing.T) {
	u, sets := annotatedCatalog(t)
	build := func() *search.Index { return buildIndex(u, sets) }
	var queries []search.Query
	for _, raw := range []string{
		"record",
		"sequence alignment",
		"concept:ProteinSequence",
		"alignment concept:DNASequence",
		"behaves:blastSearch",
		"summary concept:AccessionList behaves:translateDNA",
	} {
		q, err := search.ParseQuery(raw)
		if err != nil {
			t.Fatalf("battery query %q: %v", raw, err)
		}
		queries = append(queries, q)
	}

	fresh := build()
	for _, q := range queries {
		first, _ := fresh.Match(q)
		if len(first) == 0 {
			t.Fatalf("query %q matched nothing", q.Raw)
		}
		for rep := 1; rep <= 3; rep++ {
			if again, _ := fresh.Match(q); !reflect.DeepEqual(first, again) {
				t.Fatalf("query %q returned different hits on repeat %d", q.Raw, rep)
			}
		}
	}

	// Churn: remove, re-add without an annotation, restore it.
	churned := build()
	for _, id := range []string{"blastSearch", "translateDNA", "getUniprotRecord"} {
		e, ok := u.Catalog.Get(id)
		if !ok {
			t.Fatalf("churn module %s missing from the catalog", id)
		}
		churned.Remove(id)
		churned.Update(e.Module, nil, 1)
		churned.Update(e.Module, sets[id], 2)
	}
	churned.Remove("no-such-module")
	for _, q := range queries {
		want, _ := fresh.Match(q)
		got, _ := churned.Match(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %q: churned index answers %d hits, fresh build %d", q.Raw, len(got), len(want))
		}
	}

	for _, q := range queries {
		full, err := fresh.Search(q, 0, "")
		if err != nil {
			t.Fatalf("unwindowed %q: %v", q.Raw, err)
		}
		var walked []search.Hit
		cur := ""
		for pages := 0; ; pages++ {
			if pages > len(full.Hits) {
				t.Fatalf("page walk of %q does not terminate", q.Raw)
			}
			page, err := fresh.Search(q, 2, cur)
			if err != nil {
				t.Fatalf("page %d of %q: %v", pages, q.Raw, err)
			}
			walked = append(walked, page.Hits...)
			if page.NextCursor == "" {
				break
			}
			cur = page.NextCursor
		}
		if !reflect.DeepEqual(walked, full.Hits) {
			t.Errorf("page walk of %q reassembled %d hits, want the full %d-hit ranking", q.Raw, len(walked), len(full.Hits))
		}
	}
}

// BenchmarkSearchIndex measures the inverted index over the full
// annotated catalog: cold-build is what dexa-serve pays at boot, and
// warm-query is the steady state, one built index answering a ranked
// three-family query.
func BenchmarkSearchIndex(b *testing.B) {
	u, sets := annotatedCatalog(b)
	b.Run("cold-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ix := buildIndex(u, sets); ix.Len() != len(u.Catalog.Entries) {
				b.Fatal("short index")
			}
		}
	})
	b.Run("warm-query", func(b *testing.B) {
		q, err := search.ParseQuery("alignment concept:ProteinSequence behaves:blastSearch")
		if err != nil {
			b.Fatal(err)
		}
		ix := buildIndex(u, sets)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if hits, _ := ix.Match(q); len(hits) == 0 {
				b.Fatal("no hits")
			}
		}
	})
}
