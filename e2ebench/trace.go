package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/compose"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/search"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

// The traced run replays a prefix of the same seeded request sequence on
// one connection and times each request three ways:
//
//   - client: the request over TCP, as a reader sees it;
//   - serve.handler: the same request's server-side interval, recorded by
//     a wrapper around each node's root handler (several spans when a
//     redirect or scatter touches several nodes);
//   - replay.handler plus named spans: the request again through
//     Server.Handler().ServeHTTP in-process, then one by one the public
//     layer calls the handler makes (store.Get, Index.Search,
//     FindSubstitutesStored, Planner.Plan, Router.Substitutes, ...) and
//     serve's own work: routing, the telemetry wrapper, registry lookups,
//     validators and serve.encode (the live answer, decoded into the type
//     serve encodes it from, encoded again the way serve's writeJSON does).
//
// transport = client − (serve.handler − serve.write), serve.write being
// the live handler's writes into the connection. trace.coverage_ratio is
// transport plus every named span, over the client time. The named spans
// are timed on their own, so leaving a layer's calls out lowers it: below
// 0.9 the live request spent time in something the breakdown does not
// name. The rest of the replay, replay.handler − named spans, is reported
// as serve.unattributed and not counted as covered.

type wrapFunc = func(name string, h http.Handler) http.Handler

// span is one timed interval of the traced run. Spans of one request
// share Req; Start and End are nanoseconds since the run began.
type span struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Node   string `json:"node,omitempty"`
	Calls  int    `json:"calls"` // layer calls the span covers
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) perCall() time.Duration { return time.Duration(s.End-s.Start) / time.Duration(s.Calls) }

// spanLog keeps the run's spans in memory; they are written out when the
// run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// internal counts intra-cluster API calls any node served: the
	// fan-out of scatter requests.
	internal atomic.Int64
}

func (l *spanLog) add(req, name, parent, node string, calls int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Req: req, Name: name, Parent: parent, Node: node, Calls: calls,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
}

// timed runs fn as one span.
func (l *spanLog) timed(req, name, parent, node string, calls int, fn func()) {
	t0 := time.Now()
	fn()
	l.add(req, name, parent, node, calls, t0, time.Now())
}

// tracePrefix marks the requests the traced run tags; the wrapper ignores
// every other request (warm-up, health probes, intra-cluster calls).
const tracePrefix = "e2e-"

// wrap records the server-side interval of every tagged request and
// counts intra-cluster calls. It also times the handler's writes into
// the connection's response writer, which reach the socket once a body
// outgrows the write buffer: that is transport work, recorded as one
// serve.write span of their summed length.
func (l *spanLog) wrap(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/cluster/") {
			l.internal.Add(1)
		}
		id := r.Header.Get("X-Request-ID")
		if !strings.HasPrefix(id, tracePrefix) {
			h.ServeHTTP(w, r)
			return
		}
		tw := &timedWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(tw, r)
		t1 := time.Now()
		l.add(id, "serve.handler", "client", node, 1, t0, t1)
		l.add(id, "serve.write", "serve.handler", node, 1, t1.Add(-tw.in), t1)
	})
}

// timedWriter sums the time spent in Write.
type timedWriter struct {
	http.ResponseWriter
	in time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.ResponseWriter.Write(p)
	t.in += time.Since(t0)
	return n, err
}

func (t *timedWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists the traced run's metrics in report order. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"serve.handler_ms.catalog", "ms"},
	{"serve.handler_ms.module", "ms"},
	{"serve.handler_ms.examples", "ms"},
	{"serve.handler_ms.generate", "ms"},
	{"serve.handler_ms.substitutes", "ms"},
	{"serve.handler_ms.matches", "ms"},
	{"serve.handler_ms.search", "ms"},
	{"serve.handler_ms.compose", "ms"},
	{"serve.handler_ms.cluster_substitutes", "ms"},
	{"serve.handler_ms.cluster_matrix", "ms"},
	{"serve.handler_ms.cluster_search", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.response_kb", "KB"},
	{"store.get_us", "us"},
	{"store.put_us", "us"},
	{"store.write_p50_ms", "ms"},
	{"store.commit_batch_mean", "count"},
	{"store.wal_bytes_per_put", "B"},
	{"store.compactions", "count"},
	{"store.noop_ratio", "ratio"},
	{"core.generate_us", "us"},
	{"match.substitutes_ms", "ms"},
	{"match.matrix_incremental_ms", "ms"},
	{"match.comparisons_per_search", "count"},
	{"match.pruned_ratio", "ratio"},
	{"match.subs_cache_hit_ratio", "ratio"},
	{"search.query_us.keyword", "us"},
	{"search.query_us.concept", "us"},
	{"search.query_us.behaves", "us"},
	{"search.update_us", "us"},
	{"compose.plan_ms", "ms"},
	{"compose.verified_ratio", "ratio"},
	{"ontology.cache_hit_ratio", "ratio"},
	{"cluster.router_substitutes_ms", "ms"},
	{"cluster.router_search_ms", "ms"},
	{"cluster.router_matrix_ms", "ms"},
	{"cluster.fetch_examples_ms", "ms"},
	{"cluster.fanout_per_request", "count"},
	{"cluster.tail_once_ms", "ms"},
	{"cluster.wal_frames_per_batch", "count"},
	{"cluster.wal_compression_ratio", "ratio"},
	{"cluster.replication_lag_records", "count"},
	{"cluster.freshness_p50_ms", "ms"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage_ratio", "ratio"},
	{"load.sched_lag_p99_ms", "ms"},
	{"load.requests", "count"},
}

// handlerRoutes maps serve.handler_ms metrics to route labels.
var handlerRoutes = map[string]string{
	"catalog":             "/catalog",
	"module":              "/modules/{id}",
	"examples":            "/modules/{id}/examples",
	"generate":            "/modules/{id}/generate",
	"substitutes":         "/modules/{id}/substitutes",
	"matches":             "/matches",
	"search":              "/search",
	"compose":             "/compose",
	"cluster_substitutes": "/cluster/substitutes",
	"cluster_matrix":      "/cluster/matrix",
	"cluster_search":      "/cluster/search",
}

// traceShare is the part of the measured budget the traced run replays:
// each traced request runs about four times (an untraced pass first, then
// live, replay and layer calls) on one connection instead of several.
const traceShare = 8

// tracer drives the layer replays of one traced run.
type tracer struct {
	w   *workload
	top *topology
	cat *catalog
	log *spanLog
	im  *match.IncrementalMatrix
	// index is the benchmark's own search index, fed each churn write so
	// that Index.Update is timed without touching the served index.
	index *search.Index

	plans, verified int
	walPerRecord    []float64

	buf              bytes.Buffer // serve.encode output
	encoded, matched int          // answers re-encoded, and of those reproduced byte for byte
	lastMatches      []byte       // the last /matches body encoded
	// instrument is serve's per-route telemetry wrapper around a handler
	// that does nothing, on a registry and trace ring of its own.
	instrument http.Handler
}

func newTracer(w *workload, top *topology, cat *catalog, log *spanLog) (*tracer, error) {
	tr := &tracer{w: w, top: top, cat: cat, log: log}
	ins := telemetry.NewHTTPInstrument(telemetry.HTTPOptions{
		Registry: telemetry.NewRegistry(),
		Tracer:   telemetry.NewTracer(telemetry.DefaultTraceCapacity),
	})
	tr.instrument = ins.Route("/replay", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	n := top.nodes[0]
	if w.topology == topoLeaderFollower {
		tr.im = match.NewIncrementalMatrix(n.cmp)
		if _, err := tr.im.Matrix(context.Background(), n.u.Registry.Modules(), keyedSource(n.st)); err != nil {
			return nil, err
		}
		tr.index = search.New(n.u.Ont)
		(&search.Syncer{Registry: n.u.Registry, Store: n.st, Index: tr.index}).IndexAll()
	}
	return tr, nil
}

func keyedSource(st *store.Store) match.KeyedSource {
	return func(id string) (*dataexample.KeyedSet, bool) {
		set, _, ok := st.GetKeyed(id)
		return set, ok
	}
}

// searches reads the substitute-search counter of every node: a live
// request that moves it ran a search instead of hitting a cache.
func (tr *tracer) searches() uint64 {
	var n uint64
	for _, nd := range tr.top.nodes {
		n += nd.metrics.Counter("dexa_match_searches_total", "").Value()
	}
	return n
}

// nodeFor returns the node serving base URL loc (a redirect target).
func (tr *tracer) nodeFor(loc string) (*node, string) {
	for _, n := range tr.top.nodes {
		if strings.HasPrefix(loc, n.url+"/api") {
			return n, strings.TrimPrefix(loc, n.url+"/api")
		}
	}
	return nil, ""
}

// newReplayRequest builds an in-process request for path.
func newReplayRequest(r request, path, etag string) *http.Request {
	req := httptest.NewRequest(r.Method, path, nil)
	if r.Cond {
		req.Header.Set("If-None-Match", etag)
	}
	return req
}

// serveInProcess replays r, first built as req, through the nodes' API
// handlers, following redirects the way the client does.
func (tr *tracer) serveInProcess(n *node, r request, req *http.Request, etag string) {
	for hop := 0; hop < 3 && n != nil; hop++ {
		rec := httptest.NewRecorder()
		n.api.ServeHTTP(rec, req)
		if rec.Code != http.StatusTemporaryRedirect {
			return
		}
		var path string
		n, path = tr.nodeFor(rec.Header().Get("Location"))
		req = newReplayRequest(r, path, etag)
	}
}

// serveWork times serve's own work for one hop of r on node n: routing
// through the root and API muxes, the per-route telemetry wrapper (timed
// around a handler that does nothing) and the registry lookups of the
// request's module.
func (tr *tracer) serveWork(id string, n *node, r request, etag string) {
	layer := func(name string, calls int, fn func()) {
		tr.log.timed(id, name, "replay.handler", n.name, calls, fn)
	}
	req := newReplayRequest(r, r.Path, etag)
	if mux, ok := n.api.(*http.ServeMux); ok {
		outer := newReplayRequest(r, "/api"+r.Path, etag)
		layer("serve.route", 1, func() { n.root.Handler(outer); mux.Handler(req) })
	}
	rec := httptest.NewRecorder()
	layer("serve.instrument", 1, func() { tr.instrument.ServeHTTP(rec, req) })
	switch {
	case r.Kind == "catalog":
		layer("registry.get", n.u.Registry.Len(), func() {
			for _, id := range n.u.Registry.IDs() {
				n.u.Registry.Get(id)
			}
		})
	case r.Target != "" && !strings.HasPrefix(r.Kind, "compose") && !strings.HasPrefix(r.Kind, "search."):
		layer("registry.get", 1, func() { n.u.Registry.Get(r.Target) })
	}
}

// replay times request r in-process, then serve's own work on the live
// answer body, then the layer calls its handler makes. missed reports
// that the live request ran a substitute search (a cache miss), so the
// replay times the search, not the cache lookup.
func (tr *tracer) replay(id string, r request, etag string, missed bool, body []byte) {
	ctx := context.Background()
	n := tr.top.nodes[r.Node]
	req := newReplayRequest(r, r.Path, etag)
	tr.log.timed(id, "replay.handler", "client", n.name, 1, func() { tr.serveInProcess(n, r, req, etag) })
	layer := func(name string, on *node, calls int, fn func()) {
		tr.log.timed(id, name, "replay.handler", on.name, calls, fn)
	}
	tr.serveWork(id, n, r, etag)
	tr.encode(id, n, r.Kind, body)
	q, _ := url.Parse(r.Path)
	raw := q.Query().Get("q")
	family := strings.TrimPrefix(r.Kind, "search.")

	if tr.w.topology == topoShards {
		rt := n.cl.Router
		switch r.Kind {
		case "substitutes":
			var ss cluster.StoredSet
			if n.cl.Owns(r.Target) {
				layer("store.get", n, 1, func() { ss.Examples, ss.Hash, _ = n.st.Get(r.Target) })
			} else {
				layer("cluster.fetch_examples", n, 1, func() { ss, _ = rt.FetchExamples(ctx, r.Target) })
			}
			var cands []string
			layer("registry.available", n, 1, func() {
				for _, m := range n.u.Registry.Available() {
					cands = append(cands, m.ID)
				}
			})
			layer("cluster.router_substitutes", n, 1, func() { _, _ = rt.Substitutes(ctx, r.Target, ss.Hash, ss.Examples, cands) })
		case "search.keyword", "search.behaves":
			parsed, _ := search.ParseQuery(raw)
			var res *cluster.SearchResult
			layer("cluster.router_search", n, 1, func() { res, _ = rt.Search(ctx, raw, parsed.Behaves) })
			if res == nil {
				break // the live answer's check reports the failure
			}
			layer("search.paginate", n, 1, func() {
				h := fnv.New64a()
				h.Write([]byte(res.StateKey))
				_, _ = search.PaginateHits(res.Hits, h.Sum64(), parsed.Key(), 20, "")
			})
		case "examples":
			owner := n
			for _, o := range tr.top.nodes {
				if o.cl.Owns(r.Target) {
					owner = o
				}
			}
			if owner != n {
				// The first node answers a redirect to the owner, which
				// then does the same serve work again.
				req := newReplayRequest(r, r.Path, etag)
				layer("cluster.redirect", n, 1, func() {
					http.Redirect(httptest.NewRecorder(), req, owner.cl.OwnerURL(r.Target)+"/api"+r.Path, http.StatusTemporaryRedirect)
				})
				tr.serveWork(id, owner, r, etag)
			}
			layer("store.get", owner, 1, func() { owner.st.Get(r.Target); owner.st.Version(r.Target) })
		case "matches":
			layer("cluster.router_matrix", n, 1, func() { _, _ = rt.Matrix(ctx) })
		}
		return
	}

	ids := n.u.Registry.IDs()
	switch r.Kind {
	case "examples", "module":
		layer("store.get", n, 1, func() { n.st.Get(r.Target); n.st.Version(r.Target) })
	case "catalog":
		layer("store.get", n, len(ids), func() {
			for _, id := range ids {
				n.st.Get(id)
			}
		})
	case "substitutes":
		if !missed {
			var hash string
			layer("store.get", n, 1, func() { hash, _ = n.st.Hash(r.Target) })
			layer("serve.etag", n, 1, func() {
				validator(fmt.Sprintf("%s\x00%s\x00%s\x00g%d", n.cmp.Mode, r.Target, hash, n.cmp.Index.Generation()))
			})
			break
		}
		e, _ := n.u.Registry.Get(r.Target)
		layer("match.substitutes", n, 1, func() {
			_, _ = n.cmp.FindSubstitutesStoredContext(ctx, n.st, e.Module, n.u.Registry.Available())
		})
	case "search.keyword", "search.concept", "search.behaves":
		var parsed search.Query
		var page search.Page
		layer("search.query."+family, n, 1, func() {
			parsed, _ = search.ParseQuery(raw)
			page, _ = n.index.Search(parsed, 20, "")
		})
		layer("serve.etag", n, 1, func() { validator(fmt.Sprintf("%d|%s||20", page.Generation, parsed.Key())) })
	case "matches":
		if r.Cond {
			// A revalidation costs the catalog state key, computed as serve
			// computes it: a stored-hash probe per module, folded into one
			// sha256.
			layer("serve.state_key", n, 1, func() {
				h := sha256.New()
				io.WriteString(h, n.cmp.Mode.String())
				fmt.Fprintf(h, "\x00g%d\x00", n.cmp.Index.Generation())
				for _, id := range n.u.Registry.IDs() {
					hash, _ := n.st.Hash(id)
					io.WriteString(h, id+"\x00"+hash+"\x00")
				}
				hex.EncodeToString(h.Sum(nil))
			})
			break
		}
		layer("match.matrix", n, 1, func() { _, _ = tr.im.Matrix(ctx, n.u.Registry.Modules(), keyedSource(n.st)) })
	case "generate":
		e, _ := n.u.Registry.Get(r.Target)
		var set dataexample.Set
		layer("core.generate", n, 1, func() { set, _, _ = n.u.Gen.Generate(e.Module) })
		// A refresh stores the set only if its content hash changed.
		layer("store.hash", n, 1, func() { _, _ = store.HashSet(set) })
	case "compose", "compose.like", "compose.use":
		qs := q.Query()
		planner := &compose.Planner{
			Ont: n.u.Ont, Reg: n.u.Registry,
			Examples: func(id string) (dataexample.Set, bool) {
				set, _, ok := n.st.Get(id)
				return set, ok
			},
		}
		cs := compose.Constraints{In: qs.Get("in"), Out: qs.Get("out"), Like: qs.Get("like"), MustUse: qs["use"]}
		cs.MaxDepth, _ = strconv.Atoi(qs.Get("depth")) // the plan wrote both as integers
		cs.MaxPlans, _ = strconv.Atoi(qs.Get("limit"))
		var plans []compose.Plan
		layer("compose.plan", n, 1, func() { plans, _ = planner.Plan(cs) })
		layer("workflow.save", n, max(1, len(plans)), func() {
			for _, p := range plans {
				if p.Workflow != nil {
					_ = p.Workflow.Save(io.Discard)
				}
			}
		})
		for _, p := range plans {
			tr.plans++
			if p.Verified {
				tr.verified++
			}
		}
	}
}

// validator is the sha256-and-hex step serve takes over a short key for
// the per-request validators of search pages and substitute rankings.
func validator(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])[:32]
}

// onWrite records a churn write as a store.put span, samples the WAL's
// bytes per record, and times the search-index update the write causes.
func (tr *tracer) onWrite(i int, wr write, sent, ack time.Time) {
	n := tr.top.nodes[0]
	id := fmt.Sprintf("w%d", i)
	tr.log.add(id, "store.put", "", n.name, 1, sent, ack)
	if st := n.st.Stats(); st.WALRecords > 0 {
		tr.walPerRecord = append(tr.walPerRecord, float64(st.WALBytes)/float64(st.WALRecords))
	}
	e, _ := n.u.Registry.Get(wr.Module)
	version, _ := n.st.Version(wr.Module)
	set := tr.cat.annotation(wr.Module, wr.Variant)
	tr.log.timed(id, "search.update", "store.put", n.name, 1, func() { tr.index.Update(e.Module, set, version) })
}

// counters reads every node's metric registry, summing across nodes:
// counter and gauge values by series, histogram sums and counts with
// "#sum" and "#count" appended.
func counters(regs []*telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range regs {
		for _, f := range reg.Snapshot().Families {
			for _, s := range f.Series {
				key := f.Name
				if len(s.Labels) > 0 {
					vals := make([]string, len(s.Labels))
					for i, l := range s.Labels {
						vals[i] = l.Value
					}
					key += "{" + strings.Join(vals, ",") + "}"
				}
				if f.Type == "histogram" {
					out[key+"#sum"] += s.Sum
					out[key+"#count"] += float64(s.Count)
					continue
				}
				out[key] += s.Value
			}
		}
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run: it sets up once, replays a prefix of the
// workload's sequence untraced (for the tracing-overhead baseline and the
// runtime counters) and then traced, prints the self-time table, writes
// the spans to the build directory, and reports the per-layer metrics.
func runTraced(out io.Writer, opts options) (*result, error) {
	cat, err := buildCatalog()
	if err != nil {
		return nil, err
	}
	p, err := makePlan(opts.w, cat, opts.seed, opts.budget())
	if err != nil {
		return nil, err
	}
	n := len(p.requests) / traceShare
	if n < 50 {
		n = min(50, len(p.requests))
	}
	reqs := p.requests[:n]
	log := &spanLog{epoch: time.Now()}
	ck := newChecker(opts.w, cat, p)
	opts.setups = 1
	top, _, err := setUp(opts, ck, log.wrap)
	if err != nil {
		return nil, err
	}
	defer top.close()
	tr, err := newTracer(opts.w, top, cat, log)
	if err != nil {
		return nil, err
	}
	regs := make([]*telemetry.Registry, len(top.nodes))
	for i, nd := range top.nodes {
		regs[i] = nd.metrics
	}

	ph := &phase{}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	if len(p.writes) > 0 {
		writer.Add(1)
		go func() {
			defer writer.Done()
			runWriter(time.Now(), top, cat, p.writes, ph, stop, tr.onWrite)
		}()
	}

	ctx := context.Background()
	c := newClient()
	defer c.close()
	failed := 0
	check := func(i int, a answer, err error) {
		if err == nil {
			err = ck.verify(i, a)
		}
		if err != nil {
			failed++
			ph.fail("request %d %s: %v", i, reqs[i].Path, err)
		}
	}

	// Untraced pass: the overhead baseline and the runtime counters.
	base := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, r := range reqs {
		t0 := time.Now()
		a, err := c.do(ctx, top.nodes[r.Node].url, r, ck.etag(r), "")
		base[i] = float64(time.Since(t0)) / float64(time.Millisecond)
		check(i, a, err)
	}
	runtime.ReadMemStats(&m1)

	// Traced pass.
	before := counters(regs)
	statsBefore := top.nodes[0].st.Stats()
	var bodyBytes, fanout, misses, subsReqs float64
	var lag []float64
	for i, r := range reqs {
		id := fmt.Sprintf("%s%d", tracePrefix, i)
		if top.follower != nil {
			lag = append(lag, float64(top.nodes[0].st.Seq()-min(top.nodes[0].st.Seq(), top.follower.st.Seq())))
		}
		s0, f0 := tr.searches(), log.internal.Load()
		t0 := time.Now()
		a, err := c.do(ctx, top.nodes[r.Node].url, r, ck.etag(r), id)
		log.add(id, "client", "", "", 1, t0, time.Now())
		missed := tr.searches() > s0
		fanout += float64(log.internal.Load() - f0)
		if r.Kind == "substitutes" {
			subsReqs++
			if missed {
				misses++
			}
		}
		bodyBytes += float64(len(a.body))
		check(i, a, err)
		tr.replay(id, r, ck.etag(r), missed, a.body)
	}
	after := counters(regs)
	statsAfter := top.nodes[0].st.Stats()
	close(stop)
	writer.Wait()
	if top.follower != nil {
		ph.measureFreshness(top.follower)
	}
	delta := func(key string) float64 { return after[key] - before[key] }

	ms := map[string]metric{}
	for _, pl := range perLayer {
		ms[pl.name] = metric{0, pl.unit}
	}
	set := func(name string, v float64) { ms[name] = metric{v, ms[name].Unit} }

	for name, route := range handlerRoutes {
		key := "dexa_http_request_duration_seconds{" + route + "}"
		set("serve.handler_ms."+name, 1000*ratio(delta(key+"#sum"), delta(key+"#count")))
	}
	set("serve.response_kb", bodyBytes/float64(n)/1024)
	set("store.commit_batch_mean", ratio(delta("dexa_store_commit_batch_size#sum"), delta("dexa_store_commit_batch_size#count")))
	set("store.wal_bytes_per_put", median(tr.walPerRecord))
	set("store.compactions", delta("dexa_store_compactions_total"))
	noops := float64(statsAfter.PutNoops - statsBefore.PutNoops)
	set("store.noop_ratio", ratio(noops, noops+float64(statsAfter.Puts-statsBefore.Puts)))
	set("store.write_p50_ms", percentile(ph.writeLat, 0.5))
	comparisons, pruned := delta("dexa_match_comparisons_total"), delta("dexa_match_pruned_total")
	set("match.comparisons_per_search", ratio(comparisons, delta("dexa_match_searches_total")))
	set("match.pruned_ratio", ratio(pruned, pruned+comparisons))
	if subsReqs > 0 {
		set("match.subs_cache_hit_ratio", 1-misses/subsReqs)
	}
	set("compose.verified_ratio", ratio(float64(tr.verified), float64(tr.plans)))
	hits := delta("dexa_ontology_cache_hits_total")
	set("ontology.cache_hit_ratio", ratio(hits, hits+delta("dexa_ontology_cache_builds_total")))
	if opts.w.topology == topoShards {
		set("cluster.fanout_per_request", fanout/float64(n))
	}
	set("cluster.wal_frames_per_batch", ratio(delta("dexa_cluster_wal_batch_frames#sum"), delta("dexa_cluster_wal_batch_frames#count")))
	set("cluster.wal_compression_ratio", ratio(delta("dexa_cluster_wal_compressed_bytes_total"), delta("dexa_cluster_wal_uncompressed_bytes_total")))
	set("cluster.replication_lag_records", mean(lag))
	set("cluster.freshness_p50_ms", percentile(ph.fresh, 0.5))
	set("runtime.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	set("runtime.alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)/1024)
	set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	set("load.sched_lag_p99_ms", percentile(ph.schedLag, 0.99))
	set("load.requests", float64(n))
	if opts.w.topology == topoLeaderFollower {
		tail, err := tailOnceProbe(cat)
		if err != nil {
			return nil, err
		}
		set("cluster.tail_once_ms", tail)
	}

	table := selfTimes(log.spans)
	for name, metricName := range map[string]string{
		"store.get": "store.get_us", "store.put": "store.put_us", "core.generate": "core.generate_us",
		"search.query.keyword": "search.query_us.keyword", "search.query.concept": "search.query_us.concept",
		"search.query.behaves": "search.query_us.behaves", "search.update": "search.update_us",
	} {
		set(metricName, table.perCall[name].Seconds()*1e6)
	}
	for name, metricName := range map[string]string{
		"match.substitutes": "match.substitutes_ms", "match.matrix": "match.matrix_incremental_ms",
		"compose.plan": "compose.plan_ms", "cluster.router_substitutes": "cluster.router_substitutes_ms",
		"cluster.router_search": "cluster.router_search_ms", "cluster.router_matrix": "cluster.router_matrix_ms",
		"cluster.fetch_examples": "cluster.fetch_examples_ms",
	} {
		set(metricName, table.perCall[name].Seconds()*1e3)
	}
	set("serve.transport_ms", table.transportP50.Seconds()*1e3)
	set("trace.coverage_ratio", table.coverage)
	set("trace.overhead_ratio", ratio(table.clientP50.Seconds()*1e3, percentile(base, 0.5)))

	table.print(out, opts.w.name, n, ms["trace.overhead_ratio"].Value)
	fmt.Fprintf(out, "  serve.encode reproduced %d of %d answer bodies byte for byte\n", tr.matched, tr.encoded)
	path := filepath.Join(opts.scratch, fmt.Sprintf("trace-%s-%d.jsonl", opts.w.name, opts.seed))
	if err := log.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(log.spans), path)
	printMetrics(out, ms)
	// A workload whose sequence exercises a layer but recorded no span for
	// it has lost that layer's timing: the traced run fails.
	var missing []string
	for _, name := range expectedSpans[opts.w.name] {
		if _, ok := table.perCall[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, f := range ph.failures {
		fmt.Fprintln(out, "failure:", f)
	}
	if len(missing) > 0 {
		fmt.Fprintln(out, "failure: no spans recorded for", strings.Join(missing, ", "))
	}
	res := &result{Attempted: 2*n + ph.writes, Metrics: ms}
	res.Failed = failed + ph.writes - ph.writeOK
	res.Correct = res.Failed == 0 && len(missing) == 0
	return res, nil
}

// expectedSpans are the named spans each workload's traced run must
// record: every layer its request kinds and writer reach, and serve's own
// work.
var expectedSpans = map[string][]string{
	"lookup":  {"serve.route", "serve.encode", "store.get", "search.query.keyword", "search.query.concept", "search.query.behaves"},
	"plan":    {"serve.route", "serve.encode", "compose.plan"},
	"churn":   {"serve.route", "serve.encode", "match.matrix", "match.substitutes", "search.query.behaves", "core.generate", "store.put", "search.update"},
	"scatter": {"serve.route", "serve.encode", "store.get", "cluster.fetch_examples", "cluster.router_substitutes", "cluster.router_search", "cluster.router_matrix"},
}

// answerShape returns a pointer to a new value of the type serve encodes
// an answer of this request kind from: same fields, same JSON tags, so
// encoding it again repeats serve's encoding work.
func answerShape(kind string) any {
	switch {
	case kind == "examples":
		return &struct {
			Module   string          `json:"module"`
			Hash     string          `json:"hash"`
			Version  uint64          `json:"version"`
			Count    int             `json:"count"`
			Examples dataexample.Set `json:"examples"`
		}{}
	case kind == "generate":
		return &struct {
			Module   string          `json:"module"`
			Hash     string          `json:"hash"`
			Count    int             `json:"count"`
			Cached   bool            `json:"cached"`
			Changed  bool            `json:"changed,omitempty"`
			Examples dataexample.Set `json:"examples"`
		}{}
	case kind == "module":
		type param struct {
			Name     string `json:"name"`
			Struct   string `json:"struct"`
			Semantic string `json:"semantic,omitempty"`
			Optional bool   `json:"optional,omitempty"`
		}
		return &struct {
			ID          string          `json:"id"`
			Name        string          `json:"name"`
			Description string          `json:"description,omitempty"`
			Kind        string          `json:"kind"`
			Form        string          `json:"form"`
			Provider    string          `json:"provider,omitempty"`
			Inputs      []param         `json:"inputs"`
			Outputs     []param         `json:"outputs"`
			Available   bool            `json:"available"`
			Examples    int             `json:"examples"`
			Hash        string          `json:"hash,omitempty"`
			Version     uint64          `json:"version,omitempty"`
			Health      json.RawMessage `json:"health,omitempty"`
		}{}
	case kind == "catalog":
		// serve encodes the catalog as a map of two keys, which the
		// encoder writes in sorted order: the same bytes as this struct.
		type row struct {
			ID        string `json:"id"`
			Name      string `json:"name"`
			Kind      string `json:"kind"`
			Form      string `json:"form"`
			Provider  string `json:"provider,omitempty"`
			Available bool   `json:"available"`
			Examples  int    `json:"examples"`
			Hash      string `json:"hash,omitempty"`
		}
		return &struct {
			Count   int   `json:"count"`
			Modules []row `json:"modules"`
		}{}
	case kind == "substitutes":
		return &struct {
			Target      string `json:"target"`
			Hash        string `json:"hash"`
			Substitutes []struct {
				ID       string  `json:"id"`
				Verdict  string  `json:"verdict"`
				Score    float64 `json:"score"`
				Compared int     `json:"compared"`
				Agreeing int     `json:"agreeing"`
			} `json:"substitutes"`
			Skipped []struct {
				ID     string `json:"id"`
				Reason string `json:"reason"`
			} `json:"skipped,omitempty"`
		}{}
	case strings.HasPrefix(kind, "search."):
		return &struct {
			Query      string       `json:"query"`
			Hits       []search.Hit `json:"hits"`
			Count      int          `json:"count"`
			Total      int          `json:"total"`
			NextCursor string       `json:"nextCursor,omitempty"`
			Generation uint64       `json:"generation"`
		}{}
	case strings.HasPrefix(kind, "compose"):
		return &struct {
			In    string `json:"in"`
			Out   string `json:"out"`
			Plans []struct {
				Chain     string             `json:"chain"`
				Steps     []compose.PlanStep `json:"steps"`
				Verified  bool               `json:"verified"`
				Witness   map[string]string  `json:"witness,omitempty"`
				Rationale string             `json:"rationale,omitempty"`
				Workflow  json.RawMessage    `json:"workflow,omitempty"`
			} `json:"plans"`
			Count int `json:"count"`
		}{}
	case kind == "matches":
		return &struct {
			State  string             `json:"state"`
			Matrix *match.MatchMatrix `json:"matrix"`
		}{}
	}
	return nil
}

// encode times serve's encoding of the live answer body: decoded, untimed,
// into the type serve encodes it from, then encoded again with writeJSON's
// encoder settings. Bodiless answers (304s) encode nothing.
func (tr *tracer) encode(id string, n *node, kind string, body []byte) {
	v := answerShape(kind)
	if len(body) == 0 || v == nil {
		return
	}
	if kind == "matches" {
		// serve encodes the matrix once per catalog state and writes the
		// cached bytes after that.
		if bytes.Equal(body, tr.lastMatches) {
			return
		}
		tr.lastMatches = append(tr.lastMatches[:0], body...)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return // no span: the missing encode time lowers the coverage
	}
	tr.buf.Reset()
	enc := json.NewEncoder(&tr.buf)
	enc.SetIndent("", "  ")
	tr.log.timed(id, "serve.encode", "replay.handler", n.name, 1, func() { _ = enc.Encode(v) })
	tr.encoded++
	if bytes.Equal(tr.buf.Bytes(), body) {
		tr.matched++
	}
}

// selfTable is the traced run's breakdown of client time into self times.
type selfTable struct {
	rows                    map[string]*selfRow
	perCall                 map[string]time.Duration // median per layer call, by span name
	clientTotal             time.Duration
	clientP50, transportP50 time.Duration
	coverage                float64
}

type selfRow struct {
	spans int
	total time.Duration
}

// selfTimes folds the spans of the traced requests into self times:
// transport is client minus the live server-side spans (less their
// socket writes), and every named
// span (layer calls, serve.route, serve.encode) is its own row. Coverage
// counts only those; what the in-process replay spent beyond its named
// spans is the serve.unattributed row.
func selfTimes(spans []span) *selfTable {
	t := &selfTable{rows: map[string]*selfRow{}, perCall: map[string]time.Duration{}}
	type req struct{ client, server, replay, named time.Duration }
	reqs := map[string]*req{}
	calls := map[string][]float64{}
	add := func(name string, d time.Duration) {
		row := t.rows[name]
		if row == nil {
			row = &selfRow{}
			t.rows[name] = row
		}
		row.spans++
		row.total += d
	}
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		if !strings.HasPrefix(s.Req, tracePrefix) {
			// Writer spans: no client request to attribute them to.
			calls[s.Name] = append(calls[s.Name], float64(s.perCall()))
			continue
		}
		r := reqs[s.Req]
		if r == nil {
			r = &req{}
			reqs[s.Req] = r
		}
		switch s.Name {
		case "client":
			r.client += d
		case "serve.handler":
			r.server += d
		case "serve.write":
			r.server -= d // socket writes count as transport
		case "replay.handler":
			r.replay += d
		default:
			r.named += d
			add(s.Name, d)
			calls[s.Name] = append(calls[s.Name], float64(s.perCall()))
		}
	}
	var clients, transports []float64
	var explained time.Duration
	for _, r := range reqs {
		transport := r.client - r.server
		add("transport", transport)
		add("serve.unattributed", r.replay-r.named)
		t.clientTotal += r.client
		explained += transport + r.named
		clients = append(clients, float64(r.client))
		transports = append(transports, float64(transport))
	}
	for name, cs := range calls {
		t.perCall[name] = time.Duration(percentile(cs, 0.5))
	}
	t.clientP50 = time.Duration(percentile(clients, 0.5))
	t.transportP50 = time.Duration(percentile(transports, 0.5))
	t.coverage = ratio(float64(explained), float64(t.clientTotal))
	return t
}

func (t *selfTable) print(out io.Writer, workload string, n int, overhead float64) {
	fmt.Fprintf(out, "self time, workload %s, %d traced requests, client total %.1f ms:\n", workload, n, t.clientTotal.Seconds()*1e3)
	fmt.Fprintf(out, "  %-28s %8s %12s %12s %8s\n", "layer", "spans", "total_ms", "us/request", "share")
	names := make([]string, 0, len(t.rows))
	for name := range t.rows {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return t.rows[names[i]].total > t.rows[names[j]].total })
	for _, name := range names {
		row := t.rows[name]
		fmt.Fprintf(out, "  %-28s %8d %12.3f %12.2f %8.3f\n", name, row.spans, row.total.Seconds()*1e3,
			row.total.Seconds()*1e6/float64(n), ratio(float64(row.total), float64(t.clientTotal)))
	}
	fmt.Fprintf(out, "  trace.coverage_ratio %.3f (every row but serve.unattributed), trace.overhead_ratio %.3f\n", t.coverage, overhead)
}

// tailOnceProbe times Follower.TailOnce over a fixed backlog: a leader
// holding 256 records (the catalog's annotations plus four rewrites)
// feeds a fresh follower store per repeat; the median of the repeats is
// reported.
func tailOnceProbe(cat *catalog) (float64, error) {
	const backlog, repeats = 256, 7
	st, err := store.Open("", store.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for i := 0; st.Seq() < backlog; i++ {
		id := cat.ids[i%len(cat.ids)]
		if _, _, err := st.Put(id, cat.annotation(id, i/len(cat.ids)-1)); err != nil {
			return 0, err
		}
	}
	lns, err := listen(1)
	if err != nil {
		return 0, err
	}
	mux := http.NewServeMux()
	mux.Handle("/wal", cluster.NewFeed(st, nil))
	hs := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(lns[0])
	}()
	defer func() {
		_ = hs.Close()
		<-done
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var times []float64
	for i := 0; i < repeats; i++ {
		fst, err := store.Open("", store.Options{})
		if err != nil {
			return 0, err
		}
		f := &cluster.Follower{Leader: "http://" + lns[0].Addr().String(), Store: fst}
		t0 := time.Now()
		err = f.TailOnce(context.Background(), client)
		d := time.Since(t0)
		got := fst.Seq()
		fst.Close()
		if err != nil {
			return 0, err
		}
		if got != st.Seq() {
			return 0, fmt.Errorf("tail-once probe applied up to seq %d of %d", got, st.Seq())
		}
		times = append(times, float64(d)/float64(time.Millisecond))
	}
	return median(times), nil
}
