package search

import (
	"math"
	"testing"
)

// FuzzParseQuery: ParseQuery never panics, and parsing the same string
// twice yields the same canonical Key — cursors bind to that key, so a
// nondeterministic parse would expire every page walk.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"", "   ", "concept:", "behaves:",
		"  Homology concept:Prot behaves:blast Search ",
		"search", "shared", "corpus", "protein", "blast homology",
		"concept:Seq", "concept:Acc fetch", "behaves:blastSearch",
		"search behaves:fastaSearch", "search concept:Prot behaves:ssearch",
		"summary concept:AccessionList behaves:translateDNA",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		a, errA := ParseQuery(raw)
		b, errB := ParseQuery(raw)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("ParseQuery(%q) errors differ: %v vs %v", raw, errA, errB)
		}
		if errA != nil {
			return
		}
		if a.Key() != b.Key() {
			t.Fatalf("ParseQuery(%q) keys differ: %q vs %q", raw, a.Key(), b.Key())
		}
		if a.Key() == "" {
			t.Fatalf("ParseQuery(%q) accepted a query with an empty key", raw)
		}
	})
}

// FuzzDecodeCursor: decodeCursor never panics, and every cursor it
// accepts re-encodes through encodeCursor to a string that decodes to
// the same fields.
func FuzzDecodeCursor(f *testing.F) {
	ix := paginationIndex()
	q, _ := ParseQuery("shared")
	page, err := ix.Search(q, 10, "")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		page.NextCursor,
		encodeCursor(cursor{gen: 7, query: queryHash("shared"), score: -1.5, id: "a|b"}),
		"", "notbase64!!!", "aGVsbG8", "djF8eHw",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := decodeCursor(s)
		if err != nil {
			return
		}
		again, err := decodeCursor(encodeCursor(c))
		if err != nil {
			t.Fatalf("re-encoded cursor %+v does not decode: %v", c, err)
		}
		if again.gen != c.gen || again.query != c.query || again.id != c.id ||
			math.Float64bits(again.score) != math.Float64bits(c.score) {
			t.Fatalf("cursor round trip changed fields: %+v -> %+v", c, again)
		}
	})
}
