package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/instances"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/store"
	"dexa/internal/typesys"
)

type fixture struct {
	ont    *ontology.Ontology
	reg    *registry.Registry
	st     *store.Store
	source *store.Source
	srv    *Server
	ts     *httptest.Server
}

// seqModule builds a Seq->Acc module computing fn.
func seqModule(id string, fn func(s string) string) *module.Module {
	m := &module.Module{
		ID: id, Name: "module " + id, Kind: module.Kind(0),
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "Acc"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"acc": typesys.Str(fn(string(in["seq"].(typesys.StringValue))))}, nil
	}))
	return m
}

// newFixture builds a three-module universe: a and b are behaviourally
// equivalent, c is disjoint from both.
func newFixture(t *testing.T, dir string) *fixture {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Prot", "", "Seq")
	o.MustAddConcept("Acc", "", "Data")
	p := instances.NewPool(o)
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("Prot", typesys.Str("MKTW"), "")
	p.MustAdd("Acc", typesys.Str("P12345"), "")

	reg := registry.New()
	for _, m := range []*module.Module{
		seqModule("alpha", func(s string) string { return "X:" + s }),
		seqModule("beta", func(s string) string { return "X:" + s }),
		seqModule("gamma", func(s string) string { return "Y:" + s }),
	} {
		reg.MustRegister(m)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	source := store.NewSource(st, core.NewGenerator(o, p))
	srv := &Server{
		Registry: reg,
		Store:    st,
		Source:   source,
		Comparer: match.NewComparer(o, source),
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &fixture{ont: o, reg: reg, st: st, source: source, srv: srv, ts: ts}
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func TestCatalogAndModule(t *testing.T) {
	f := newFixture(t, "")
	var cat struct {
		Count   int `json:"count"`
		Modules []struct {
			ID       string `json:"id"`
			Examples int    `json:"examples"`
			Hash     string `json:"hash"`
		} `json:"modules"`
	}
	if resp := getJSON(t, f.ts.URL+"/catalog", &cat); resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status %d", resp.StatusCode)
	}
	if cat.Count != 3 || len(cat.Modules) != 3 {
		t.Fatalf("catalog count = %d (%d rows), want 3", cat.Count, len(cat.Modules))
	}
	if cat.Modules[0].ID != "alpha" || cat.Modules[1].ID != "beta" || cat.Modules[2].ID != "gamma" {
		t.Errorf("catalog not in ID order: %+v", cat.Modules)
	}
	if cat.Modules[0].Examples != 0 || cat.Modules[0].Hash != "" {
		t.Errorf("unannotated module shows examples: %+v", cat.Modules[0])
	}

	var mi struct {
		ID     string `json:"id"`
		Inputs []struct {
			Name     string `json:"name"`
			Semantic string `json:"semantic"`
		} `json:"inputs"`
		Available bool `json:"available"`
	}
	if resp := getJSON(t, f.ts.URL+"/modules/alpha", &mi); resp.StatusCode != http.StatusOK {
		t.Fatalf("module status %d", resp.StatusCode)
	}
	if mi.ID != "alpha" || len(mi.Inputs) != 1 || mi.Inputs[0].Semantic != "Seq" || !mi.Available {
		t.Errorf("module info = %+v", mi)
	}
	if resp := getJSON(t, f.ts.URL+"/modules/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown module status %d, want 404", resp.StatusCode)
	}
}

// getCatalog fetches /catalog through the handler, revalidating with
// etag when it is not empty.
func getCatalog(srv *Server, etag string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/catalog", nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// TestCatalogETag: /catalog carries an ETag derived from its bytes,
// answers 304 to it, serves the same bytes while the catalog holds, and
// moves body and ETag together when an annotation or an availability
// flip changes the listing. The bytes are exactly the writeJSON
// rendering of the listing.
func TestCatalogETag(t *testing.T) {
	f := newFixture(t, "")
	post(t, f.ts.URL+"/modules/alpha/generate")
	first := getCatalog(f.srv, "")
	etag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || etag == "" {
		t.Fatalf("catalog: status %d, ETag %q", first.Code, etag)
	}
	var listing struct {
		Count   int            `json:"count"`
		Modules []catalogEntry `json:"modules"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	var canonical bytes.Buffer
	enc := json.NewEncoder(&canonical)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"modules": listing.Modules, "count": listing.Count}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Body.Bytes(), canonical.Bytes()) {
		t.Error("cached /catalog body is not the canonical writeJSON rendering")
	}

	if rec := getCatalog(f.srv, etag); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("revalidation: status %d with %d bytes, want an empty 304", rec.Code, rec.Body.Len())
	}
	if rec := getCatalog(f.srv, ""); !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) || rec.Header().Get("ETag") != etag {
		t.Fatal("unchanged catalog served different bytes or ETag")
	}

	for _, change := range []struct {
		name string
		do   func() error
	}{
		{"annotating beta", func() error { post(t, f.ts.URL+"/modules/beta/generate"); return nil }},
		{"retiring gamma", func() error { return f.reg.SetAvailable("gamma", false) }},
	} {
		if err := change.do(); err != nil {
			t.Fatal(err)
		}
		rec := getCatalog(f.srv, etag)
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") == etag {
			t.Fatalf("after %s: status %d, ETag %q unchanged", change.name, rec.Code, rec.Header().Get("ETag"))
		}
		etag = rec.Header().Get("ETag")
	}
	var after struct {
		Modules []catalogEntry `json:"modules"`
	}
	if err := json.Unmarshal(getCatalog(f.srv, "").Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Modules[1].Examples == 0 || after.Modules[2].Available {
		t.Fatalf("catalog after the changes = %+v", after.Modules)
	}
}

// TestCatalogDuringFlips reads /catalog and /modules/{id} while beta's
// availability flips continuously: every read sees availability through
// the registry lock, so the race detector stays quiet, and once the
// flips stop both views agree with the registry.
func TestCatalogDuringFlips(t *testing.T) {
	f := newFixture(t, "")
	h := f.srv.Handler()
	done := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := f.reg.SetAvailable("beta", i%2 == 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for _, path := range []string{"/catalog", "/modules/beta"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s during flips: status %d", path, rec.Code)
			}
		}
	}
	close(done)
	<-flipped

	_, want, _ := f.reg.Lookup("beta")
	var cat struct {
		Modules []catalogEntry `json:"modules"`
	}
	if err := json.Unmarshal(getCatalog(f.srv, "").Body.Bytes(), &cat); err != nil {
		t.Fatal(err)
	}
	var mi moduleInfo
	getJSON(t, f.ts.URL+"/modules/beta", &mi)
	if cat.Modules[1].Available != want || mi.Available != want {
		t.Fatalf("after the flips: catalog says %v, module says %v, registry %v", cat.Modules[1].Available, mi.Available, want)
	}
}

func TestExamplesLifecycleAndETag(t *testing.T) {
	f := newFixture(t, "")
	// Nothing stored yet.
	if resp := getJSON(t, f.ts.URL+"/modules/alpha/examples", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("examples before generation: status %d, want 404", resp.StatusCode)
	}
	// Generate on demand.
	resp, err := http.Post(f.ts.URL+"/modules/alpha/generate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var gen struct {
		Hash   string `json:"hash"`
		Count  int    `json:"count"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || gen.Count == 0 || gen.Hash == "" || gen.Cached {
		t.Fatalf("generate: status %d, %+v", resp.StatusCode, gen)
	}

	// Fetch with ETag.
	var ex struct {
		Hash     string          `json:"hash"`
		Count    int             `json:"count"`
		Examples json.RawMessage `json:"examples"`
	}
	resp = getJSON(t, f.ts.URL+"/modules/alpha/examples", &ex)
	if resp.StatusCode != http.StatusOK || ex.Hash != gen.Hash || ex.Count != gen.Count {
		t.Fatalf("examples: status %d, %+v vs generate %+v", resp.StatusCode, ex, gen)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+gen.Hash+`"` {
		t.Fatalf("ETag = %q, want quoted content hash %q", etag, gen.Hash)
	}

	// Conditional revalidation: 304, empty body.
	req, _ := http.NewRequest("GET", f.ts.URL+"/modules/alpha/examples", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("If-None-Match: status %d body %q, want 304 empty", resp2.StatusCode, body)
	}

	// Weak validators and wildcards match too.
	for _, h := range []string{"W/" + etag, `"stale", ` + etag, "*"} {
		req, _ := http.NewRequest("GET", f.ts.URL+"/modules/alpha/examples", nil)
		req.Header.Set("If-None-Match", h)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d, want 304", h, resp.StatusCode)
		}
	}

	// A stale tag misses and gets the full body again.
	req, _ = http.NewRequest("GET", f.ts.URL+"/modules/alpha/examples", nil)
	req.Header.Set("If-None-Match", `"0000"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", resp3.StatusCode)
	}

	// Second generate is served from the store.
	resp, err = http.Post(f.ts.URL+"/modules/alpha/generate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !gen.Cached {
		t.Error("second generate should be served from the store")
	}
	if f.source.Runs() != 1 {
		t.Errorf("generator runs = %d, want 1", f.source.Runs())
	}
}

// TestGenerateThunderingHerd is the serving-layer acceptance criterion:
// N identical concurrent generation requests cause exactly one
// TestGenerateAnswersOneRecord: a /generate answer's examples, count,
// hash and ETag come from one stored record while a writer alternates two
// contents of the module. Reading the hash apart from the set paired one
// record's examples with the next record's hash when a write landed in
// between.
func TestGenerateAnswersOneRecord(t *testing.T) {
	f := newFixture(t, "")
	sets := [2]dataexample.Set{prefixSet("X:")[:1], prefixSet("Y:")}
	h := f.srv.Handler()
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := f.st.Put("alpha", sets[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 3000; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/modules/alpha/generate", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		var gen struct {
			Hash     string          `json:"hash"`
			Count    int             `json:"count"`
			Examples dataexample.Set `json:"examples"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &gen); err != nil {
			t.Fatal(err)
		}
		want, err := store.HashSet(gen.Examples)
		if err != nil {
			t.Fatal(err)
		}
		if gen.Hash != want || gen.Count != len(gen.Examples) || rec.Header().Get("ETag") != `"`+want+`"` {
			t.Fatalf("request %d: hash %s, count %d, ETag %s for %d examples hashing to %s",
				i, gen.Hash, gen.Count, rec.Header().Get("ETag"), len(gen.Examples), want)
		}
	}
}

// generator run.
func TestGenerateThunderingHerd(t *testing.T) {
	f := newFixture(t, "")
	const N = 24
	var start, done sync.WaitGroup
	start.Add(1)
	statuses := make([]int, N)
	hashes := make([]string, N)
	for i := 0; i < N; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := http.Post(f.ts.URL+"/modules/beta/generate", "", nil)
			if err != nil {
				statuses[i] = -1
				return
			}
			var gen struct {
				Hash string `json:"hash"`
			}
			json.NewDecoder(resp.Body).Decode(&gen)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			hashes[i] = gen.Hash
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < N; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if hashes[i] != hashes[0] {
			t.Errorf("request %d saw hash %q, others %q", i, hashes[i], hashes[0])
		}
	}
	if runs := f.source.Runs(); runs != 1 {
		t.Fatalf("%d concurrent generate requests performed %d generator runs, want exactly 1", N, runs)
	}
}

func TestSubstitutesFromStoredExamples(t *testing.T) {
	f := newFixture(t, "")
	// No stored examples yet: the search has nothing to go on.
	if resp := getJSON(t, f.ts.URL+"/modules/alpha/substitutes", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("substitutes before generation: status %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Post(f.ts.URL+"/modules/alpha/generate", "", nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// The provider retires alpha — the decay scenario. Its stored
	// examples still drive the search.
	if err := f.reg.SetAvailable("alpha", false); err != nil {
		t.Fatal(err)
	}
	var subs struct {
		Target      string `json:"target"`
		Substitutes []struct {
			ID      string  `json:"id"`
			Verdict string  `json:"verdict"`
			Score   float64 `json:"score"`
		} `json:"substitutes"`
	}
	if resp := getJSON(t, f.ts.URL+"/modules/alpha/substitutes", &subs); resp.StatusCode != http.StatusOK {
		t.Fatalf("substitutes: status %d", resp.StatusCode)
	}
	if len(subs.Substitutes) == 0 {
		t.Fatal("no substitutes found")
	}
	if subs.Substitutes[0].ID != "beta" || subs.Substitutes[0].Verdict != "equivalent" {
		t.Errorf("best substitute = %+v, want equivalent beta", subs.Substitutes[0])
	}
	for _, sub := range subs.Substitutes {
		if sub.ID == "gamma" && sub.Verdict == "equivalent" {
			t.Error("gamma behaves differently and must not rank equivalent")
		}
		if sub.ID == "alpha" {
			t.Error("the decayed target must not propose itself")
		}
	}
	// limit caps the ranking.
	var limited struct {
		Substitutes []json.RawMessage `json:"substitutes"`
	}
	getJSON(t, f.ts.URL+"/modules/alpha/substitutes?limit=1", &limited)
	if len(limited.Substitutes) != 1 {
		t.Errorf("limit=1 returned %d substitutes", len(limited.Substitutes))
	}
	if resp := getJSON(t, f.ts.URL+"/modules/alpha/substitutes?limit=-2", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit: status %d, want 400", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	f := newFixture(t, "")
	if resp, err := http.Post(f.ts.URL+"/modules/alpha/generate", "", nil); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var stats struct {
		Store struct {
			Modules int  `json:"modules"`
			Memory  bool `json:"memory"`
		} `json:"store"`
		GeneratorRuns uint64 `json:"generatorRuns"`
		Modules       int    `json:"modules"`
		Annotated     int    `json:"annotated"`
	}
	if resp := getJSON(t, f.ts.URL+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats.Modules != 3 || stats.Annotated != 1 || stats.GeneratorRuns != 1 || !stats.Store.Memory {
		t.Errorf("stats = %+v", stats)
	}
}

// TestGracefulShutdown drives the full drain path: an in-flight request
// outlives the shutdown signal and still completes, and everything
// annotated during the run is on disk afterwards.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir)

	slow := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", f.srv.Handler())
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		<-slow
		fmt.Fprint(w, "drained")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, &http.Server{Handler: mux}, ln, 5*time.Second, f.st)
	}()
	base := "http://" + ln.Addr().String()

	// Annotate a module through the real server.
	resp, err := http.Post(base+"/modules/alpha/generate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	wantHash, ok := f.st.Hash("alpha")
	if !ok {
		t.Fatal("generation did not reach the store")
	}

	// Park a request in flight, then pull the plug.
	slowDone := make(chan string, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slowDone <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		slowDone <- string(body)
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request arrive
	cancel()                          // SIGTERM equivalent
	time.Sleep(50 * time.Millisecond) // shutdown is draining now
	close(slow)                       // the in-flight request finishes

	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil on clean shutdown", err)
	}
	if got := <-slowDone; got != "drained" {
		t.Errorf("in-flight request during shutdown: %q, want %q", got, "drained")
	}
	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/catalog"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}

	// The store was flushed: a fresh open sees the annotation.
	re, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if h, ok := re.Hash("alpha"); !ok || h != wantHash {
		t.Errorf("after shutdown+reopen: hash %q, want %q", h, wantHash)
	}
}

// TestEtagMatches covers the header comparison corner cases directly.
func TestEtagMatches(t *testing.T) {
	etag := `"abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"abc"`, true},
		{`W/"abc"`, true},
		{"*", true},
		{`"xyz"`, false},
		{`"xyz", "abc"`, true},
		{` "abc" `, true},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, etag); got != c.want {
			t.Errorf("etagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
	if !strings.Contains(`"abc"`, "abc") {
		t.Fatal("sanity")
	}
}
