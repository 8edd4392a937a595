package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/telemetry"
)

// serveGet serves one GET through h, revalidating with etag when it is
// not empty.
func serveGet(h http.Handler, target, etag string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// memoChecker compares a node's /examples and /substitutes bodies with
// fresh encodes of freshly built answers, and counts the 200s it saw.
type memoChecker struct {
	n                *catalogNode
	h                http.Handler
	examples, substs int // 200s served
}

// wantBody fails unless target answers 200 with want twice in a row (a
// miss or a hit, then a hit) and its ETag revalidates to a 304.
func (c *memoChecker) wantBody(t *testing.T, step int, target string, want []byte) int {
	t.Helper()
	for i := 0; i < 2; i++ {
		rec := serveGet(c.h, target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("step %d: %s status %d: %s", step, target, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("step %d: %s (read %d) differs from a fresh encode:\n got %s\nwant %s", step, target, i, rec.Body, want)
		}
		etag := rec.Header().Get("ETag")
		if rec := serveGet(c.h, target, etag); rec.Code != http.StatusNotModified {
			t.Fatalf("step %d: %s revalidated with %s: status %d, want 304", step, target, etag, rec.Code)
		}
	}
	return 2
}

// check reads id's /examples and /substitutes, without limit= and with
// limit=1, against fresh answers built from the store and registry.
func (c *memoChecker) check(t *testing.T, step int, id string) {
	t.Helper()
	s := c.n.srv
	examples, subs := "/modules/"+id+"/examples", "/modules/"+id+"/substitutes"
	set, hash, version, ok := c.n.st.GetVersioned(id)
	if !ok {
		for _, target := range []string{examples, subs} {
			if rec := serveGet(c.h, target, ""); rec.Code != http.StatusNotFound {
				t.Fatalf("step %d: %s of a deleted annotation: status %d, want 404", step, target, rec.Code)
			}
		}
		return
	}
	want, err := encodeJSONBody(examplesResponse{Module: id, Hash: hash, Version: version, Count: len(set), Examples: set})
	if err != nil {
		t.Fatal(err)
	}
	c.examples += c.wantBody(t, step, examples, want)

	m, _, _ := s.Registry.Lookup(id)
	res, err := s.Comparer.FindSubstitutesContext(context.Background(),
		match.Unavailable{Signature: m, Examples: set}, s.Registry.Available())
	if err != nil {
		t.Fatal(err)
	}
	fresh := substitutesResponse{Target: id, Hash: hash}
	fresh.Substitutes, fresh.Skipped = substituteEntries(res.Ranked, res.Skipped)
	if want, err = encodeJSONBody(fresh); err != nil {
		t.Fatal(err)
	}
	c.substs += c.wantBody(t, step, subs, want)
	if len(fresh.Substitutes) > 1 {
		fresh.Substitutes = fresh.Substitutes[:1]
		if want, err = encodeJSONBody(fresh); err != nil {
			t.Fatal(err)
		}
	}
	c.substs += c.wantBody(t, step, subs+"?limit=1", want)
}

// TestMemoisedBodiesExact: over a seeded random history on the full
// catalog — new contents, same-content re-puts, reverts to an earlier
// content, deletes with and without an immediate re-put, and
// availability flips, one to three between two reads — every /examples
// and /substitutes body, with no limit= and with limit=1, equals byte
// for byte the encodeJSONBody rendering of an answer built afresh after
// that step, whether it came from the memo or was just built; every ETag
// revalidates to a 304, and a deleted annotation answers 404 on both
// routes. dexa_serve_memo_total counts each 200 once, and after the
// history a second read of every target is a hit.
func TestMemoisedBodiesExact(t *testing.T) {
	n := newCatalogNode(t)
	SyncIndex(n.srv.Registry, n.srv.Comparer.Index)
	reg := telemetry.NewRegistry()
	n.srv.Telemetry = reg
	c := &memoChecker{n: n, h: n.srv.Handler()}
	r := rand.New(rand.NewSource(29))

	targets := n.ids[:6]
	held := map[string][]dataexample.Set{} // every content a target has held
	for _, id := range targets {
		held[id] = []dataexample.Set{n.sets[id]}
	}
	put := func(id string, set dataexample.Set) {
		if _, _, err := n.st.Put(id, set); err != nil {
			t.Fatal(err)
		}
		held[id] = append(held[id], set)
	}
	// Flips pick among the modules the targets rank at the start, so they
	// reorder, shorten and lengthen the rankings.
	var ranked []string
	for _, id := range targets {
		c.check(t, -1, id)
		m, _, _ := n.srv.Registry.Lookup(id)
		res, err := n.srv.Comparer.FindSubstitutesContext(context.Background(),
			match.Unavailable{Signature: m, Examples: n.sets[id]}, n.srv.Registry.Available())
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range res.Ranked {
			ranked = append(ranked, cand.Module.ID)
		}
	}
	for step := 0; step < 60; step++ {
		// One to three operations between two reads, so a content can
		// change and come back before any request sees the change.
		for op := 1 + r.Intn(3); op > 0; op-- {
			id := targets[r.Intn(len(targets))]
			earlier := held[id][r.Intn(len(held[id]))]
			switch r.Intn(5) {
			case 0: // a new content, or a revisit of one of the full set's prefixes
				set := n.sets[id]
				put(id, set[:1+r.Intn(len(set))])
			case 1: // the stored content again: a no-op
				if set, _, ok := n.st.Get(id); ok {
					put(id, set)
				}
			case 2: // revert to an earlier content
				put(id, earlier)
			case 3: // delete, re-put now or at a later step
				if err := n.st.Delete(id); err != nil {
					t.Fatal(err)
				}
				if r.Intn(2) == 0 {
					put(id, earlier)
				}
			case 4: // flip a ranked candidate's availability
				flip := ranked[r.Intn(len(ranked))]
				_, available, _ := n.srv.Registry.Lookup(flip)
				if err := n.srv.Registry.SetAvailable(flip, !available); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, id := range targets {
			c.check(t, step, id)
		}
	}

	memo := reg.CounterVec("dexa_serve_memo_total", "", "memo", "result")
	count := func(name, result string) int { return int(memo.With(name, result).Value()) }
	if got := count("examples", "hit") + count("examples", "miss"); got != c.examples {
		t.Errorf("examples memo counted %d lookups for %d 200s", got, c.examples)
	}
	if got := count("substitutes", "hit") + count("substitutes", "miss"); got != c.substs {
		t.Errorf("substitutes memo counted %d lookups for %d 200s", got, c.substs)
	}
	missEx, missSubs := count("examples", "miss"), count("substitutes", "miss")
	for _, id := range targets {
		c.check(t, 60, id)
	}
	if count("examples", "miss") != missEx || count("substitutes", "miss") != missSubs {
		t.Error("reads of an unchanged catalog missed the memos")
	}
}
