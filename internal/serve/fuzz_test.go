package serve

import (
	"bytes"
	"math"
	"testing"

	"dexa/internal/cluster"
	"dexa/internal/match"
)

// FuzzSplice: splicing entries rendered by encodeEntry into the encoded
// envelope around an empty list equals, byte for byte, encodeJSONBody of
// the whole value, for lists one object deep (a /substitutes ranking)
// and two deep (a /matches cell list), with no, one and several entries.
// The fuzzed strings land in the entries and in the envelope, so
// escaping (HTML characters, U+2028, newlines) cannot shift the splice.
func FuzzSplice(f *testing.F) {
	for _, seed := range []struct {
		a, b  string
		score float64
		n     uint8
	}{
		{"alpha", "beta", 1, 0},
		{"<", "&", 0.5, 1},
		{"\u2028", "a\u2029b", 0, 2},
		{"line\nbreak", `"cells": []`, 0.25, 3},
		{"\n    \"cells\": []", "\n  \"substitutes\": []", 1, 4},
	} {
		f.Add(seed.a, seed.b, seed.score, seed.n)
	}
	f.Fuzz(func(t *testing.T, a, b string, score float64, n uint8) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("json cannot encode a non-finite score")
		}
		count := int(n % 5)

		ranked := make([]cluster.SubstituteEntry, count)
		cells := make([]match.MatrixCell, count)
		for i := range count {
			ranked[i] = cluster.SubstituteEntry{ID: a, Verdict: b, Score: score, Compared: i, Agreeing: int(n)}
			cells[i] = match.MatrixCell{Target: a, Candidate: b, Verdict: a + b, Score: score, Compared: i}
		}

		subs := substitutesResponse{Target: a, Hash: b, Substitutes: []cluster.SubstituteEntry{},
			Skipped: []cluster.SkippedEntry{{ID: b, Reason: a}}}
		checkSplice(t, subs, "substitutes", 1, ranked, func() any {
			subs.Substitutes = ranked
			return subs
		})

		mm := match.MatchMatrix{Mode: a, Modules: []string{a, b}, Missing: []string{b}, Cells: []match.MatrixCell{}}
		resp := matchesResponse{State: b, Matrix: &mm, FailedShards: []string{a}}
		checkSplice(t, resp, "cells", 2, cells, func() any {
			whole := mm
			whole.Cells = cells
			return matchesResponse{State: b, Matrix: &whole, FailedShards: []string{a}}
		})
	})
}

// checkSplice splices entries into skeleton's field and compares the
// result with encodeJSONBody of whole().
func checkSplice[E any](t *testing.T, skeleton any, field string, depth int, entries []E, whole func() any) {
	t.Helper()
	skel, err := encodeJSONBody(skeleton)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([][]byte, len(entries))
	for i, e := range entries {
		if frags[i], err = encodeEntry(e, depth); err != nil {
			t.Fatal(err)
		}
	}
	got := splice(skel, field, depth, frags)
	want, err := encodeJSONBody(whole())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("splice of %d entries into %q at depth %d differs from a whole encode\n got: %s\nwant: %s",
			len(entries), field, depth, got, want)
	}
	for i, f := range frags {
		if want, _ := encodeEntry(entries[i], depth); !bytes.Equal(f, want) {
			t.Fatalf("fragment %d no longer holds its entry after the splice: %s", i, f)
		}
	}
}
