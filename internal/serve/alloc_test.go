package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// raceEnabled is set in race builds, whose instrumentation changes
// allocation counts: budgets measured without it do not hold there.
var raceEnabled bool

// discardWriter is a ResponseWriter that keeps the headers and status
// and drops the body, so an allocation budget counts the handler's
// allocations rather than a recorder's buffer growth.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// getAllocs serves GET target through the full handler, revalidating
// with etag when it is not empty, and returns the allocations per call
// and the last status.
func getAllocs(t *testing.T, srv *Server, target, etag string) (float64, int) {
	t.Helper()
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		clear(w.header)
		h.ServeHTTP(w, req)
	}
	serve()
	return testing.AllocsPerRun(100, serve), w.status
}

// TestCatalogAllocBudget: a /catalog on an unchanged catalog writes the
// memoised bytes, and a revalidation with its ETag answers 304, without
// reading the catalog: what allocates is the route's instrumentation and
// the response headers. Both budgets are the measured count (11) with
// under 10% headroom; the per-request encode allocated 27 on this
// three-module catalog, and more with every module.
func TestCatalogAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := newFixture(t, "")
	post(t, f.ts.URL+"/modules/alpha/generate")
	etag := getCatalog(f.srv, "").Header().Get("ETag")
	for _, c := range []struct {
		name   string
		etag   string
		status int
		budget float64
	}{
		{"cached 200", "", http.StatusOK, 12},
		{"304", etag, http.StatusNotModified, 12},
	} {
		n, status := getAllocs(t, f.srv, "/catalog", c.etag)
		if status != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, status, c.status)
		}
		if n > c.budget {
			t.Errorf("%s /catalog allocates %.0f, budget %.0f", c.name, n, c.budget)
		}
	}
}

// TestComposeAllocBudget: a warm /compose — the view cached for the
// catalog state, its chains, verified plans and like= scores memoised —
// only orders the classes by their kept like= scores, ranks the memoised
// plans and splices the entries kept with them into the encoded
// envelope; its query is parsed once, limit= included. The budget is the
// measured count (44) with under 10% headroom; before the plan memo the
// same request allocated 493, 87 while limit= re-parsed the query, 81
// while like= was scored afresh on every request, 65 while each plan's
// memoised workflow bytes were compacted and re-indented into a whole
// encode of the response on every request, and 47 while the envelope
// was copied to exact size before splice copied it again and the
// tracing attributes were built without a tracer.
func TestComposeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := newViewFixture(t)
	const budget = 48
	n, status := getAllocs(t, f.srv, "/compose?in=DNA&out=Acc&like=alpha&limit=3", "")
	if status != http.StatusOK {
		t.Fatalf("/compose status %d", status)
	}
	if n > budget {
		t.Errorf("warm /compose allocates %.0f, budget %d", n, budget)
	}
}

// TestExamplesAllocBudget: a warm /modules/{id}/examples writes the body
// kept for the stored record, and a revalidation with its ETag answers
// 304 before the memo is read: what allocates is the route's
// instrumentation, the module lookup and the response headers. Both
// budgets are the measured count (13) with under 10% headroom; the
// per-request encode allocated 62 on the same 200.
func TestExamplesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := newFixture(t, "")
	post(t, f.ts.URL+"/modules/alpha/generate")
	etag := serveGet(f.srv.Handler(), "/modules/alpha/examples", "").Header().Get("ETag")
	for _, c := range []struct {
		name   string
		etag   string
		status int
		budget float64
	}{
		{"warm 200", "", http.StatusOK, 14},
		{"304", etag, http.StatusNotModified, 14},
	} {
		n, status := getAllocs(t, f.srv, "/modules/alpha/examples", c.etag)
		if status != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, status, c.status)
		}
		if n > c.budget {
			t.Errorf("%s /examples allocates %.0f, budget %.0f", c.name, n, c.budget)
		}
	}
}

// TestSubstitutesAllocBudget: a warm /modules/{id}/substitutes writes
// the body kept for its subsKey, and a revalidation answers 304 before
// the memo is read. Both budgets are the measured count (15) with under
// 10% headroom; rebuilding the wire entries from the memoised ranking
// and encoding them allocated 23 on the same 200.
func TestSubstitutesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := newFixture(t, "")
	for _, id := range []string{"alpha", "beta", "gamma"} {
		post(t, f.ts.URL+"/modules/"+id+"/generate")
	}
	etag := serveGet(f.srv.Handler(), "/modules/alpha/substitutes", "").Header().Get("ETag")
	for _, c := range []struct {
		name   string
		etag   string
		status int
		budget float64
	}{
		{"warm 200", "", http.StatusOK, 16},
		{"304", etag, http.StatusNotModified, 16},
	} {
		n, status := getAllocs(t, f.srv, "/modules/alpha/substitutes", c.etag)
		if status != c.status {
			t.Fatalf("%s: status %d, want %d", c.name, status, c.status)
		}
		if n > c.budget {
			t.Errorf("%s /substitutes allocates %.0f, budget %.0f", c.name, n, c.budget)
		}
	}
}

// TestSearchAllocBudget: a warm single-node /search matches the query
// against the index, windows the ranking and encodes the page on every
// request. Each budget is the measured count (38 for the keyword query,
// 39 for the behaves: query, on this three-module catalog) with under
// 10% headroom; the counts grow with the hits a query matches.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := searchFixture(t)
	for _, c := range []struct {
		target string
		budget float64
	}{
		{"/search?q=module", 41},
		{"/search?q=behaves:alpha", 42},
	} {
		n, status := getAllocs(t, f.srv, c.target, "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", c.target, status)
		}
		if n > c.budget {
			t.Errorf("warm %s allocates %.0f, budget %.0f", c.target, n, c.budget)
		}
	}
}
