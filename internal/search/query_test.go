package search

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
)

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("  Homology concept:Prot behaves:blast Search ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Terms, []string{"homology", "search"}) {
		t.Errorf("terms = %v", q.Terms)
	}
	if !reflect.DeepEqual(q.Concepts, []string{"Prot"}) {
		t.Errorf("concepts = %v", q.Concepts)
	}
	if !reflect.DeepEqual(q.Behaves, []string{"blast"}) {
		t.Errorf("behaves = %v", q.Behaves)
	}
	for _, bad := range []string{"", "   ", "concept:", "behaves:"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestRanking(t *testing.T) {
	o := testOntology()
	ix := New(o)
	ix.Update(mod("blastSearch", "BLAST homology search", "searches protein databases", "Prot", "Acc"),
		dataexample.Set{ex("MKTW", "sw-hit")}, 1)
	ix.Update(mod("ssearch", "Smith-Waterman search", "optimal local alignment", "Prot", "Acc"),
		dataexample.Set{ex("MKTW", "sw-hit")}, 1) // same behavior as blastSearch
	ix.Update(mod("fastaSearch", "FASTA search", "k-mer heuristic search", "Prot", "Acc"),
		dataexample.Set{ex("MKTW", "kmer-hit")}, 1)
	ix.Update(mod("transcribe", "transcriber", "dna transcription", "DNA", "Seq"),
		dataexample.Set{ex("ACGT", "ACGU")}, 1)

	// Keyword: "search" matches the three searchers, not the transcriber.
	q, _ := ParseQuery("search")
	hits, _ := ix.Match(q)
	if len(hits) != 3 {
		t.Fatalf("keyword 'search' hit %d docs, want 3: %+v", len(hits), hits)
	}

	// Concept expansion: Seq reaches the DNA- and Prot-annotated modules.
	q, _ = ParseQuery("concept:Seq")
	hits, _ = ix.Match(q)
	if len(hits) != 4 {
		t.Fatalf("concept:Seq hit %d docs, want 4", len(hits))
	}
	// Specificity: querying the deeper concept scores at least as high.
	q, _ = ParseQuery("concept:DNA")
	deep, _ := ix.Match(q)
	if len(deep) != 1 || deep[0].ID != "transcribe" {
		t.Fatalf("concept:DNA = %+v", deep)
	}
	if deep[0].Concept < hits[0].Concept {
		t.Errorf("deeper concept match scored %v < shallower %v", deep[0].Concept, hits[0].Concept)
	}

	// Behavior class: behaves:blastSearch finds blastSearch and ssearch
	// (identical example tables) but not fastaSearch.
	q, _ = ParseQuery("behaves:blastSearch")
	hits, _ = ix.Match(q)
	ids := []string{}
	for _, h := range hits {
		ids = append(ids, h.ID)
	}
	if !reflect.DeepEqual(ids, []string{"blastSearch", "ssearch"}) {
		t.Fatalf("behaves:blastSearch = %v, want [blastSearch ssearch]", ids)
	}

	// Blended: a behavior match outranks a keyword-only match.
	q, _ = ParseQuery("search behaves:fastaSearch")
	hits, _ = ix.Match(q)
	if hits[0].ID != "fastaSearch" {
		t.Fatalf("blended top hit = %s, want fastaSearch", hits[0].ID)
	}

	// Determinism: repeated queries are identical.
	for _, raw := range []string{"search", "concept:Seq", "behaves:blastSearch", "search concept:Prot behaves:ssearch"} {
		q, _ := ParseQuery(raw)
		a, _ := ix.Match(q)
		b, _ := ix.Match(q)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %q not deterministic", raw)
		}
	}
}

// paginationIndex builds an index with many tied and near-tied scores.
func paginationIndex() *Index {
	o := testOntology()
	ix := New(o)
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("doc%02d", i)
		desc := "shared"
		for j := 0; j < i%4; j++ {
			desc += " shared" // vary tf so scores tie in blocks
		}
		ix.Update(mod(id, "shared corpus module", desc, "Prot", "Acc"), nil, uint64(i))
	}
	return ix
}

// TestPaginationProperty: for any page size, walking the cursor chain
// yields exactly the full ranked list — no duplicates, no gaps — and the
// walk is stable across repeated runs.
func TestPaginationProperty(t *testing.T) {
	ix := paginationIndex()
	q, _ := ParseQuery("shared")
	full, _ := ix.Match(q)
	if len(full) != 40 {
		t.Fatalf("full match = %d docs, want 40", len(full))
	}
	for _, limit := range []int{1, 3, 7, 39, 40, 100} {
		var walked []Hit
		cursor := ""
		pages := 0
		for {
			page, err := ix.Search(q, limit, cursor)
			if err != nil {
				t.Fatalf("limit %d page %d: %v", limit, pages, err)
			}
			if page.Total != len(full) {
				t.Fatalf("limit %d: page total %d, want %d", limit, page.Total, len(full))
			}
			walked = append(walked, page.Hits...)
			pages++
			if page.NextCursor == "" {
				break
			}
			cursor = page.NextCursor
			if pages > len(full)+1 {
				t.Fatalf("limit %d: cursor chain does not terminate", limit)
			}
		}
		if !reflect.DeepEqual(walked, full) {
			t.Fatalf("limit %d: walked %d hits != full %d hits", limit, len(walked), len(full))
		}
	}
}

// TestPaginationCursorInvalidation: a catalog mutation between pages
// expires the cursor (the caller restarts); a cursor minted for another
// query or malformed input is rejected outright.
func TestPaginationCursorInvalidation(t *testing.T) {
	ix := paginationIndex()
	q, _ := ParseQuery("shared")
	page, err := ix.Search(q, 10, "")
	if err != nil || page.NextCursor == "" {
		t.Fatalf("first page: %v (cursor %q)", err, page.NextCursor)
	}

	// Unrelated mutation between pages: the ranking may have shifted, so
	// the cursor must signal a restart instead of silently skipping.
	ix.Update(mod("newcomer", "shared newcomer", "", "Prot", "Acc"), nil, 99)
	if _, err := ix.Search(q, 10, page.NextCursor); !errors.Is(err, ErrCursorExpired) {
		t.Fatalf("mutated-index resume error = %v, want ErrCursorExpired", err)
	}

	// Fresh cursor, wrong query.
	page, err = ix.Search(q, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	other, _ := ParseQuery("corpus")
	if _, err := ix.Search(other, 10, page.NextCursor); err == nil || errors.Is(err, ErrCursorExpired) {
		t.Fatalf("cross-query cursor error = %v, want plain rejection", err)
	}

	// Garbage cursors.
	for _, bad := range []string{"notbase64!!!", "aGVsbG8", "djF8eHw"} {
		if _, err := ix.Search(q, 10, bad); err == nil {
			t.Errorf("cursor %q accepted", bad)
		}
	}
}

// TestMatchOverlay: two shards each index the whole catalog but store
// the example sets of their own modules only. One shard matching over
// the other's Summary ranks exactly as an index holding every set does;
// a module the overlay lacks (its owner is down, or does not index it)
// is no hit, and its behaves: anchor resolves to nothing.
func TestMatchOverlay(t *testing.T) {
	o := testOntology()
	mods := []*module.Module{
		mod("blastSearch", "BLAST homology search", "searches protein databases", "Prot", "Acc"),
		mod("ssearch", "Smith-Waterman search", "optimal local alignment", "Prot", "Acc"),
		mod("fastaSearch", "FASTA search", "k-mer heuristic search", "Prot", "Acc"),
		mod("transcribe", "transcriber", "dna transcription", "DNA", "Seq"),
	}
	sets := map[string]dataexample.Set{
		"blastSearch": {ex("MKTW", "sw-hit")},
		"ssearch":     {ex("MKTW", "sw-hit")}, // blastSearch's class, on the other shard
		"fastaSearch": {ex("MKTW", "kmer-hit"), ex("MKTT", "kmer-hit")},
		"transcribe":  {ex("ACGT", "ACGU")},
	}
	local := func(id string) bool { return id == "blastSearch" || id == "transcribe" }
	remote := func(id string) bool { return !local(id) }
	whole, mine, theirs := New(o), New(o), New(o)
	for _, m := range mods {
		whole.Update(m, sets[m.ID], 1)
		for _, ix := range []struct {
			ix   *Index
			owns func(string) bool
		}{{mine, local}, {theirs, remote}} {
			var set dataexample.Set
			if ix.owns(m.ID) {
				set = sets[m.ID]
			}
			ix.ix.Update(m, set, 1)
		}
	}
	docs, _ := theirs.Summary(remote)
	if len(docs) != 2 || docs["fastaSearch"].Examples != 2 || docs["ssearch"].Class != Fingerprint(sets["blastSearch"]) {
		t.Fatalf("summary = %+v, want fastaSearch with 2 examples and ssearch in blastSearch's class", docs)
	}
	ov := NewOverlay(local, docs)
	for _, raw := range []string{"search", "concept:Seq", "behaves:blastSearch", "behaves:ssearch", "search behaves:fastaSearch", "nosuchterm"} {
		q, _ := ParseQuery(raw)
		want, _ := whole.Match(q)
		got, _ := mine.MatchOverlay(q, ov)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q over the overlay = %+v, want %+v", raw, got, want)
		}
	}

	delete(docs, "ssearch") // its owner no longer answers for it
	q, _ := ParseQuery("search behaves:ssearch")
	got, _ := mine.MatchOverlay(q, NewOverlay(local, docs))
	for _, h := range got {
		if h.ID == "ssearch" || h.Behavior != 0 {
			t.Fatalf("hit %+v: a module missing from the overlay must neither hit nor anchor", h)
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d hits, want blastSearch and fastaSearch", len(got))
	}
}
