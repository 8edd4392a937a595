package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestValidatorHeaders: every conditional route answers a 200 with
// Content-Type application/json, an ETag and Cache-Control: no-cache,
// and a revalidation with that ETag answers 304 carrying the same
// validators; /generate's 200 carries them too. On a shard, a
// /substitutes is validated like a single node's, and its limit= answer,
// spliced from the kept entries, equals the single node's byte for byte;
// with a shard that does not own the target down, a cold one is still
// complete and validated. A partial cluster /matches or /search carries
// neither, so it can never 304 against a complete answer.
func TestValidatorHeaders(t *testing.T) {
	f := newLifecycleFixture(t)
	h := f.srv.Handler()
	for _, target := range []string{
		"/catalog",
		"/modules/alpha/examples",
		"/modules/alpha/substitutes",
		"/matches",
		"/search?q=module",
		"/events",
	} {
		wantConditional(t, h, target)
	}
	// alpha ranks one substitute here; a limit= below a longer ranking
	// splices the kept entries into a new body.
	n := newCatalogNode(t)
	nh := n.srv.Handler()
	spliced := false
	for _, id := range n.ids {
		var subs substitutesResponse
		mustUnmarshal(t, serveGet(nh, "/modules/"+id+"/substitutes", "").Body.Bytes(), &subs)
		if len(subs.Substitutes) > 1 {
			wantConditional(t, nh, "/modules/"+id+"/substitutes?limit=1")
			spliced = true
			break
		}
	}
	if !spliced {
		t.Fatal("no target ranks two substitutes — the limited splice went untested")
	}

	req := httptest.NewRequest(http.MethodPost, "/modules/alpha/generate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/generate: status %d: %s", rec.Code, rec.Body)
	}
	hash, _ := f.st.Hash("alpha")
	if etag := wantValidators(t, "/generate", rec); etag != `"`+hash+`"` {
		t.Errorf("/generate: ETag %s, want the stored hash %q", etag, hash)
	}

	w := newClusterWorld(t, []string{"s1", "s2", "s3"}, 2)
	w.seed(t)
	withClusterSearch(t, w)
	rt := &shardOutage{host: strings.TrimPrefix(w.cfg.ShardURL("s3"), "http://")}
	w.nodes["s1"].node.Router.Client = &http.Client{Transport: rt}
	// Every module has the same signature, so every target's ranking
	// holds every other module; the first target s3 does not own stays
	// cold for the outage below.
	sh := w.nodes["s1"].srv.Handler()
	var cold string
	validated := 0
	for _, id := range w.reg.IDs() {
		if w.ring.Owner(id) == "s3" {
			continue
		}
		if cold == "" {
			cold = id
			continue
		}
		subs := "/modules/" + id + "/substitutes"
		wantConditional(t, sh, subs)
		wantConditional(t, sh, subs+"?limit=1")
		if got, want := serveGet(sh, subs+"?limit=1", "").Body.String(), serveGet(w.oracle.srv.Handler(), subs+"?limit=1", "").Body.String(); got != want {
			t.Errorf("%s?limit=1 on s1 differs from the single node:\n got: %s\nwant: %s", subs, got, want)
		}
		validated++
	}
	if validated == 0 {
		t.Fatal("s1 could validate no cluster /substitutes while keeping one target cold")
	}
	rt.down.Store(true)
	subs := "/modules/" + cold + "/substitutes"
	wantConditional(t, sh, subs)
	if got, want := serveGet(sh, subs, "").Body.String(), serveGet(w.oracle.srv.Handler(), subs, "").Body.String(); got != want {
		t.Errorf("%s on s1 with s3 down differs from the single node:\n got: %s\nwant: %s", subs, got, want)
	}
	for _, path := range []string{"/api/matches", "/api/search?q=module"} {
		var body struct {
			Partial bool `json:"partial"`
		}
		resp := getWithETag(t, w.nodes["s1"].ts.URL+path, "", &body)
		if resp.StatusCode != http.StatusOK || !body.Partial {
			t.Fatalf("%s with s3 down: status %d, partial %v", path, resp.StatusCode, body.Partial)
		}
		for _, name := range []string{"ETag", "Cache-Control"} {
			if v := resp.Header.Get(name); v != "" {
				t.Errorf("partial %s carries %s %q", path, name, v)
			}
		}
	}
}

// wantConditional fails unless target answers a 200 with Content-Type
// application/json and its validators, and a revalidation with its ETag
// answers 304 with the same validators.
func wantConditional(t *testing.T, h http.Handler, target string) {
	t.Helper()
	rec := serveGet(h, target, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
	}
	etag := wantValidators(t, target, rec)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", target, ct)
	}
	rec = serveGet(h, target, etag)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("%s revalidated with %s: status %d, want 304", target, etag, rec.Code)
	}
	if got := wantValidators(t, target+" (304)", rec); got != etag {
		t.Errorf("%s: 304 carries ETag %s, the 200 carried %s", target, got, etag)
	}
}

// wantValidators fails unless rec carries an ETag and Cache-Control:
// no-cache, and returns the ETag.
func wantValidators(t *testing.T, what string, rec *httptest.ResponseRecorder) string {
	t.Helper()
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Errorf("%s carries no ETag", what)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("%s: Cache-Control %q, want no-cache", what, cc)
	}
	return etag
}

// TestSubstitutesBadLimitBeforeLookup: a malformed limit= answers 400
// on a single node and on a shard alike, also for a module that has no
// stored examples — every node reads limit= before the target's set.
func TestSubstitutesBadLimitBeforeLookup(t *testing.T) {
	f := newFixture(t, "")
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	for _, url := range []string{
		f.ts.URL + "/modules/alpha/substitutes?limit=-1",
		w.nodes["s1"].ts.URL + "/api/modules/alpha/substitutes?limit=-1",
		w.nodes["s2"].ts.URL + "/api/modules/alpha/substitutes?limit=x",
	} {
		if status, body := fetch(t, url); status != http.StatusBadRequest {
			t.Errorf("GET %s on an unannotated module: status %d, want 400: %s", url, status, body)
		}
	}
}
