package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/instances"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/resilient"
	"dexa/internal/store"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// telemetryFixture is a fully instrumented server: durable store with
// aggressive compaction, metrics registry, tracer, resilient-wrapped
// module, ops endpoints — the deployment shape dexa-serve assembles.
type telemetryFixture struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	source *store.Source
	ts     *httptest.Server
}

func newTelemetryFixture(t *testing.T) *telemetryFixture {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Acc", "", "Data")
	p := instances.NewPool(o)
	p.MustAdd("DNA", typesys.Str("ACGT"), "")
	p.MustAdd("Acc", typesys.Str("P12345"), "")

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(32)

	mods := registry.New()
	for _, id := range []string{"alpha", "beta", "slowpoke"} {
		m := seqModule(id, func(s string) string { return id + ":" + s })
		if id == "slowpoke" {
			// Slow enough that concurrent generate requests overlap and
			// collapse onto one singleflight run.
			inner := m.Executor()
			m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
				time.Sleep(100 * time.Millisecond)
				return inner.Invoke(in)
			}))
		}
		mods.MustRegister(m)
	}
	// alpha goes through the full resilient stack, so breaker metrics are
	// exported for it.
	if e, ok := mods.Get("alpha"); ok {
		e.Module.Bind(resilient.Wrap("alpha", e.Module.Executor(), resilient.Options{Metrics: reg}))
	}

	st, err := store.Open(t.TempDir(), store.Options{CompactEvery: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	source := store.NewSource(st, core.NewGenerator(o, p))
	InstrumentOntology(reg, o)
	InstrumentSource(reg, source)

	srv := &Server{
		Registry:  mods,
		Store:     st,
		Source:    source,
		Telemetry: reg,
		Tracer:    tracer,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", http.StripPrefix("/api", srv.Handler()))
	mux.Handle("/", Ops(OpsOptions{Registry: reg, Tracer: tracer}))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &telemetryFixture{reg: reg, tracer: tracer, source: source, ts: ts}
}

func (f *telemetryFixture) post(t *testing.T, path string) {
	t.Helper()
	resp, err := http.Post(f.ts.URL+path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

// metricValue finds a sample line in Prometheus text exposition and
// returns its value. The name argument is the full series name including
// any label set, e.g. `dexa_breaker_state{module="alpha"}`.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("exposition has no sample %q:\n%s", name, exposition)
	return 0
}

// TestMetricsEndToEnd is the tentpole acceptance test: exercise the API
// through a real HTTP server, then scrape /metrics and /debug/traces and
// verify every instrumented subsystem shows up.
func TestMetricsEndToEnd(t *testing.T) {
	f := newTelemetryFixture(t)

	// Two generations → two WAL appends → one compaction (CompactEvery: 2).
	f.post(t, "/api/modules/alpha/generate")
	f.post(t, "/api/modules/beta/generate")
	getJSON(t, f.ts.URL+"/api/catalog", nil)
	getJSON(t, f.ts.URL+"/api/modules/alpha/examples", nil)

	// A herd of concurrent generates for the slow module: singleflight
	// collapses them onto one run, the rest count as dedup hits.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.post(t, "/api/modules/slowpoke/generate")
		}()
	}
	wg.Wait()
	if f.source.SharedHits() == 0 {
		t.Error("concurrent generates produced no singleflight dedup hits")
	}

	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	out := string(body)

	// HTTP layer: route-labelled counters and latency histograms.
	if got := metricValue(t, out, `dexa_http_requests_total{route="/modules/{id}/generate",method="POST",code="200"}`); got != 6 {
		t.Errorf("generate route count = %v, want 6", got)
	}
	if got := metricValue(t, out, `dexa_http_request_duration_seconds_count{route="/modules/{id}/generate"}`); got != 6 {
		t.Errorf("generate route histogram count = %v, want 6", got)
	}
	if !strings.Contains(out, `dexa_http_request_duration_seconds_bucket{route="/catalog",le="+Inf"}`) {
		t.Error("catalog latency histogram missing +Inf bucket")
	}

	// Store: WAL appends and compactions from the durable store.
	if got := metricValue(t, out, "dexa_store_wal_appends_total"); got < 2 {
		t.Errorf("wal appends = %v, want >= 2", got)
	}
	if got := metricValue(t, out, "dexa_store_compactions_total"); got < 1 {
		t.Errorf("compactions = %v, want >= 1", got)
	}
	if got := metricValue(t, out, "dexa_store_puts_total"); got != 3 {
		t.Errorf("store puts = %v, want 3", got)
	}

	// Resilience: alpha's breaker is closed and its attempts counted.
	if got := metricValue(t, out, `dexa_breaker_state{module="alpha"}`); got != 0 {
		t.Errorf("breaker state = %v, want 0 (closed)", got)
	}
	if got := metricValue(t, out, `dexa_resilient_attempts_total{module="alpha"}`); got < 1 {
		t.Errorf("resilient attempts = %v, want >= 1", got)
	}

	// Caches: ontology reasoning cache and the generation singleflight.
	if got := metricValue(t, out, "dexa_ontology_cache_hits_total"); got < 1 {
		t.Errorf("ontology cache hits = %v, want >= 1", got)
	}
	if got := metricValue(t, out, "dexa_ontology_cache_builds_total"); got < 1 {
		t.Errorf("ontology cache builds = %v, want >= 1", got)
	}
	if got := metricValue(t, out, "dexa_singleflight_dedup_hits_total"); got < 1 {
		t.Errorf("dedup hits = %v, want >= 1", got)
	}
	if got := metricValue(t, out, "dexa_generator_runs_total"); got != 3 {
		t.Errorf("generator runs = %v, want 3", got)
	}

	// Traces: the request spans carry the generation pipeline beneath them.
	var traces struct {
		Count  int `json:"count"`
		Traces []telemetry.SpanRecord
	}
	if resp := getJSON(t, f.ts.URL+"/debug/traces", &traces); resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status %d", resp.StatusCode)
	}
	if traces.Count == 0 {
		t.Fatal("no traces recorded")
	}
	names := map[string]bool{}
	var walk func(spans []telemetry.SpanRecord)
	walk = func(spans []telemetry.SpanRecord) {
		for _, sp := range spans {
			names[sp.Name] = true
			walk(sp.Children)
		}
	}
	walk(traces.Traces)
	for _, want := range []string{
		"http POST /modules/{id}/generate",
		"store.generate",
		"core.generate",
		"resilient.invoke",
	} {
		if !names[want] {
			t.Errorf("trace tree missing span %q (saw %v)", want, names)
		}
	}
}

// TestMethodNotAllowed pins the wrong-method contract: 405, an Allow
// header naming the supported method, and a JSON body with the standard
// error shape — not the mux's plain-text default.
func TestMethodNotAllowed(t *testing.T) {
	f := newFixture(t, "")
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/catalog", "GET"},
		{http.MethodDelete, "/modules/alpha", "GET"},
		{http.MethodPut, "/modules/alpha/examples", "GET"},
		{http.MethodGet, "/modules/alpha/generate", "POST"},
		{http.MethodPost, "/stats", "GET"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, f.ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow = %q, want %q", c.method, c.path, got, c.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", c.method, c.path, ct)
		}
		if err != nil || body.Error == "" {
			t.Errorf("%s %s: error body missing (decode err %v)", c.method, c.path, err)
		}
	}
}

// TestNotFoundIsJSON pins the unknown-path contract.
func TestNotFoundIsJSON(t *testing.T) {
	f := newFixture(t, "")
	resp, err := http.Get(f.ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("404 body not the JSON error shape: %v %+v", err, body)
	}
}

// TestRequestIDOnAPI: client-supplied IDs are echoed, absent ones are
// generated — on success and error paths alike.
func TestRequestIDOnAPI(t *testing.T) {
	f := newFixture(t, "")
	req, _ := http.NewRequest(http.MethodGet, f.ts.URL+"/catalog", nil)
	req.Header.Set(telemetry.RequestIDHeader, "my-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.RequestIDHeader); got != "my-req-1" {
		t.Errorf("echoed request ID = %q, want my-req-1", got)
	}

	resp2, err := http.Get(f.ts.URL + "/modules/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(telemetry.RequestIDHeader) == "" {
		t.Error("404 response carries no generated request ID")
	}
}

// TestStatsTelemetrySnapshot pins the shape of the embedded registry
// snapshot: families carry name/type/series, series carry labels and a
// value — the JSON twin of the exposition format.
func TestStatsTelemetrySnapshot(t *testing.T) {
	f := newTelemetryFixture(t)
	f.post(t, "/api/modules/alpha/generate")

	var stats struct {
		GeneratorRuns uint64 `json:"generatorRuns"`
		Telemetry     *struct {
			Families []struct {
				Name   string `json:"name"`
				Type   string `json:"type"`
				Series []struct {
					Labels []struct {
						Name  string `json:"name"`
						Value string `json:"value"`
					} `json:"labels"`
					Value float64 `json:"value"`
					Count uint64  `json:"count"`
				} `json:"series"`
			} `json:"families"`
		} `json:"telemetry"`
	}
	if resp := getJSON(t, f.ts.URL+"/api/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats.Telemetry == nil || len(stats.Telemetry.Families) == 0 {
		t.Fatal("stats response embeds no telemetry snapshot")
	}
	byName := map[string]int{}
	for i, fam := range stats.Telemetry.Families {
		byName[fam.Name] = i
	}
	idx, ok := byName["dexa_http_requests_total"]
	if !ok {
		t.Fatalf("snapshot missing dexa_http_requests_total (families %v)", byName)
	}
	fam := stats.Telemetry.Families[idx]
	if fam.Type != "counter" || len(fam.Series) == 0 {
		t.Fatalf("dexa_http_requests_total family malformed: %+v", fam)
	}
	wantLabels := map[string]bool{"route": false, "method": false, "code": false}
	for _, l := range fam.Series[0].Labels {
		if _, ok := wantLabels[l.Name]; ok {
			wantLabels[l.Name] = true
		}
	}
	for name, seen := range wantLabels {
		if !seen {
			t.Errorf("request counter series lacks label %q: %+v", name, fam.Series[0])
		}
	}
	if _, ok := byName["dexa_store_wal_appends_total"]; !ok {
		t.Error("snapshot missing store metrics")
	}
	if _, ok := byName["dexa_http_request_duration_seconds"]; !ok {
		t.Error("snapshot missing latency histogram family")
	}

	// The no-telemetry server omits the field entirely.
	plain := newFixture(t, "")
	var bare map[string]json.RawMessage
	getJSON(t, plain.ts.URL+"/stats", &bare)
	if _, present := bare["telemetry"]; present {
		t.Error("uninstrumented server leaks a telemetry field in /stats")
	}
}

// TestOpsPprofGate: the pprof suite only exists when asked for.
func TestOpsPprofGate(t *testing.T) {
	off := httptest.NewServer(Ops(OpsOptions{}))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on := httptest.NewServer(Ops(OpsOptions{Pprof: true}))
	defer on.Close()
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp2.StatusCode)
	}
}

// TestComposePlanSpan: the compose.plan span says how the request got
// its behavior-class view (built for a new catalog state, a hit on the
// cached one), how many signature groups it planned over, how many
// groups avoid= thinned and re-split into classes, whether its chains
// came from the view's memo, how many plans it reused from the memo and
// built, and how many plan entries it wrote as kept bytes and rendered.
// A second identical request finds its chains, every plan and every
// entry memoised; an avoid= that thins or drops a group bypasses the
// memo, and renders its entries again when repeated.
func TestComposePlanSpan(t *testing.T) {
	f := newViewFixture(t)
	serve := func(query string) map[string]string {
		t.Helper()
		tracer := telemetry.NewTracer(4)
		req := httptest.NewRequest(http.MethodGet, "/compose?"+query, nil)
		req = req.WithContext(telemetry.WithTracer(req.Context(), tracer))
		rec := httptest.NewRecorder()
		f.srv.handleCompose(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("/compose?%s: status %d: %s", query, rec.Code, rec.Body)
		}
		traces := tracer.Recent()
		if len(traces) != 1 || traces[0].Name != "compose.plan" {
			t.Fatalf("/compose?%s recorded %+v, want one compose.plan span", query, traces)
		}
		attrs := map[string]string{}
		for _, a := range traces[0].Attrs {
			if a.Key != "in" && a.Key != "out" {
				attrs[a.Key] = a.Value
			}
		}
		return attrs
	}
	for _, step := range []struct {
		query string
		flip  string
		want  map[string]string
	}{
		{"in=DNA&out=Acc", "", map[string]string{"view": "built", "groups": "3", "repartitioned": "0", "chains": "built", "plans": "0/5", "entries": "0/5"}},
		{"in=DNA&out=Acc", "", map[string]string{"view": "hit", "groups": "3", "repartitioned": "0", "chains": "hit", "plans": "5/0", "entries": "5/0"}},
		// like= reorders the classes but plans the same ones.
		{"in=DNA&out=Acc&like=alpha", "", map[string]string{"view": "hit", "groups": "3", "repartitioned": "0", "chains": "hit", "plans": "5/0", "entries": "5/0"}},
		// beta carries Note: the Seq->Acc group loses it and is re-split.
		{"in=Seq&out=Acc&avoid=Note", "", map[string]string{"view": "hit", "groups": "3", "repartitioned": "1", "chains": "built", "plans": "0/2", "entries": "0/2"}},
		{"in=Seq&out=Acc&avoid=Note", "", map[string]string{"view": "hit", "groups": "3", "repartitioned": "1", "chains": "built", "plans": "0/2", "entries": "0/2"}},
		// trans carries Prot: its group empties and drops out.
		{"in=DNA&out=Acc&avoid=Prot", "", map[string]string{"view": "hit", "groups": "2", "repartitioned": "0", "chains": "built", "plans": "0/3", "entries": "0/3"}},
		{"in=DNA&out=Acc", "delta", map[string]string{"view": "built", "groups": "2", "repartitioned": "0", "chains": "built", "plans": "0/4", "entries": "0/4"}},
		{"in=DNA&out=Acc", "", map[string]string{"view": "hit", "groups": "2", "repartitioned": "0", "chains": "hit", "plans": "4/0", "entries": "4/0"}},
	} {
		if step.flip != "" {
			if err := f.reg.SetAvailable(step.flip, false); err != nil {
				t.Fatal(err)
			}
		}
		if got := serve(step.query); !reflect.DeepEqual(got, step.want) {
			t.Errorf("/compose?%s (flipped %q): span attrs %v, want %v", step.query, step.flip, got, step.want)
		}
	}
}

// TestMemoBytesGauge: dexa_serve_memo_bytes sums, on every scrape, the
// bytes the /examples and /substitutes memos keep: each kept /examples
// body, and each kept /substitutes body plus the envelope its limit=
// splices into. A module whose set changes counts its new body, not
// both.
func TestMemoBytesGauge(t *testing.T) {
	f := newFixture(t, "")
	reg := telemetry.NewRegistry()
	f.srv.Telemetry = reg
	h := f.srv.Handler()
	for _, id := range []string{"alpha", "beta", "gamma"} {
		post(t, f.ts.URL+"/modules/"+id+"/generate")
	}
	scrape := func(memo string) float64 {
		t.Helper()
		var out strings.Builder
		if err := reg.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		return metricValue(t, out.String(), `dexa_serve_memo_bytes{memo="`+memo+`"}`)
	}
	bodyLen := func(target string) int {
		t.Helper()
		rec := serveGet(h, target, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", target, rec.Code)
		}
		return rec.Body.Len()
	}

	examples := bodyLen("/modules/alpha/examples") + bodyLen("/modules/beta/examples")
	if got := scrape("examples"); got != float64(examples) {
		t.Fatalf("examples memo keeps %v bytes, want %d", got, examples)
	}
	rec := serveGet(h, "/modules/alpha/substitutes", "")
	var resp substitutesResponse
	mustUnmarshal(t, rec.Body.Bytes(), &resp)
	resp.Substitutes = resp.Substitutes[:0]
	skel, err := encodeJSONBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scrape("substitutes"), rec.Body.Len()+len(skel); got != float64(want) {
		t.Fatalf("substitutes memo keeps %v bytes, want %d (body %d, envelope %d)", got, want, rec.Body.Len(), len(skel))
	}

	set, _, _ := f.st.Get("alpha")
	if len(set) < 2 {
		t.Fatalf("alpha stores %d examples; truncating it would change nothing", len(set))
	}
	if _, _, err := f.st.Put("alpha", set[:1]); err != nil {
		t.Fatal(err)
	}
	examples = bodyLen("/modules/alpha/examples") + bodyLen("/modules/beta/examples")
	if got := scrape("examples"); got != float64(examples) {
		t.Fatalf("after a new set the examples memo keeps %v bytes, want %d", got, examples)
	}
}

// TestClusterSummaryTelemetry pins the summary watch's observability. A
// shard's first cluster /search revalidates the other shard's summary by
// one call on its request path, counted with via="call", and starts the
// watch, whose long-polls count with via="watch". /stats then lists the
// held summary with its nonce, generation and watch state.
func TestClusterSummaryTelemetry(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	w.seed(t)
	withClusterSearch(t, w)
	s1, s2 := w.nodes["s1"], w.nodes["s2"]
	reg := telemetry.NewRegistry()
	met := cluster.NewMetrics(reg)
	s1.node.Metrics, s1.node.Router.Metrics = met, met

	if resp := getJSON(t, s1.ts.URL+"/api/search?q=module", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("search on s1: status %d", resp.StatusCode)
	}
	waitHeld(t, s1, "s2", func(h cluster.HeldSummary) bool { return h.Watch == cluster.WatchWatched })
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if n := metricValue(t, out.String(), `dexa_cluster_summary_revalidations_total{shard="s2",via="call"}`); n != 1 {
		t.Errorf("request-path revalidations of s2's summary: %v, want 1", n)
	}
	if n := metricValue(t, out.String(), `dexa_cluster_summary_revalidations_total{shard="s2",via="watch"}`); n < 1 {
		t.Errorf("watch revalidations of s2's summary: %v, want at least 1", n)
	}

	var stats struct {
		Cluster struct {
			Summaries []cluster.HeldSummary `json:"summaries"`
		} `json:"cluster"`
	}
	if resp := getJSON(t, s1.ts.URL+"/api/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	ix := s2.srv.SearchIndex
	want := []cluster.HeldSummary{{Shard: "s2", Nonce: ix.Nonce(), Generation: ix.Generation(), Watch: cluster.WatchWatched}}
	if !reflect.DeepEqual(stats.Cluster.Summaries, want) {
		t.Fatalf("/stats summaries %+v, want %+v", stats.Cluster.Summaries, want)
	}
}
