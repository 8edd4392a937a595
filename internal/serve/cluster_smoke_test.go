package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/match"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

// fullCatalog is the full simulated 252-module catalog sharded three
// ways plus a single-node oracle holding every annotation. Every shard's
// router dials through calls and records into its own metrics registry.
type fullCatalog struct {
	ids    []string
	names  []string
	ring   *cluster.Ring
	nodes  map[string]*clusterNode
	oracle *clusterNode
	calls  *shardCalls
}

// shardCall is one intra-cluster call: the shard it reached and the API
// path it asked for, without the /api mount prefix.
type shardCall struct{ shard, path string }

// shardCalls is an http.RoundTripper that counts the calls each shard
// receives, by shard and path.
type shardCalls struct {
	shardOf map[string]string // host:port → shard name
	mu      sync.Mutex
	got     map[shardCall]int
}

func (c *shardCalls) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.got[shardCall{c.shardOf[req.URL.Host], strings.TrimPrefix(req.URL.Path, "/api")}]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// take returns the calls counted since the last take and resets them.
func (c *shardCalls) take() map[shardCall]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.got
	c.got = map[shardCall]int{}
	return got
}

// onPath picks the per-shard counts of one path out of taken calls.
func onPath(calls map[shardCall]int, path string) map[string]int {
	out := map[string]int{}
	for call, n := range calls {
		if call.path == path {
			out[call.shard] = n
		}
	}
	return out
}

// newFullCatalog boots the three shards and the oracle on loopback and
// annotates every module on its owner shard and on the oracle.
func newFullCatalog(t *testing.T) *fullCatalog {
	t.Helper()
	u := simulation.NewUniverse()

	newNode := func(name string) *clusterNode {
		st, err := store.Open("", store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		// Each node gets its own generator over the shared pool —
		// generation is deterministic, so shard and oracle stores agree.
		source := store.NewSource(st, core.NewGenerator(u.Ont, u.Pool))
		cmp := match.NewComparer(u.Ont, source)
		cmp.Index = match.NewCatalogIndex(u.Ont, u.Registry.Modules())
		cmp.Workers = 4
		srv := &Server{Registry: u.Registry, Store: st, Source: source, Comparer: cmp}
		return &clusterNode{name: name, st: st, source: source, srv: srv, mux: http.NewServeMux()}
	}

	names := []string{"s1", "s2", "s3"}
	var cfg cluster.Config
	listeners := map[string]net.Listener{}
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[name] = ln
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Name: name, URL: "http://" + ln.Addr().String()})
	}
	ring, err := cfg.Ring()
	if err != nil {
		t.Fatal(err)
	}
	calls := &shardCalls{shardOf: map[string]string{}, got: map[shardCall]int{}}
	for _, sh := range cfg.Shards {
		calls.shardOf[strings.TrimPrefix(sh.URL, "http://")] = sh.Name
	}

	nodes := map[string]*clusterNode{}
	for _, name := range names {
		cn := newNode(name)
		node, err := cluster.NewShardNode(cfg, name, telemetry.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		node.Router.Client = &http.Client{Transport: calls}
		cn.node = node
		cn.srv.Cluster = node
		cn.mux.Handle("/wal", cluster.NewFeed(cn.st, nil))
		cn.start(t, listeners[name])
		nodes[name] = cn
	}
	oracle := newNode("oracle")
	oln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	oracle.start(t, oln)

	// Seed directly through each owner's source (and the oracle's) —
	// driving 252 annotations over HTTP would only slow the setup down.
	ids := u.Registry.IDs()
	perShard := map[string]int{}
	for _, id := range ids {
		e, _ := u.Registry.Get(id)
		owner := ring.Owner(id)
		perShard[owner]++
		if _, _, err := nodes[owner].source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s on %s: %v", id, owner, err)
		}
		if _, _, err := oracle.source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s on oracle: %v", id, err)
		}
	}
	t.Logf("seeded %d modules across %d shards: %v", len(ids), len(names), perShard)
	for _, name := range names {
		if perShard[name] == 0 {
			t.Fatalf("shard %s owns no modules — ring placement degenerated", name)
		}
	}
	return &fullCatalog{ids: ids, names: names, ring: ring, nodes: nodes, oracle: oracle, calls: calls}
}

// feasibleOwners names the shards owning at least one of target's
// feasible candidates, computed from the oracle's own CatalogIndex, and
// counts those candidates.
func (fc *fullCatalog) feasibleOwners(t *testing.T, target string) (map[string]bool, int) {
	t.Helper()
	srv := fc.oracle.srv
	e, ok := srv.Registry.Get(target)
	if !ok {
		t.Fatalf("unknown target %s", target)
	}
	feas := srv.Comparer.Index.Feasibility(e.Module, srv.Comparer.Mode)
	owners := map[string]bool{}
	n := 0
	for _, m := range srv.Registry.Available() {
		if m.ID != target && !feas.Prunes(m.ID) {
			owners[fc.ring.Owner(m.ID)] = true
			n++
		}
	}
	return owners, n
}

// TestClusterSmokeFullCatalog is the acceptance smoke for the serving
// tier at catalog scale: the full simulated 252-module catalog sharded
// three ways, byte-compared against a single-node oracle on the whole
// match matrix and the substitute query of every module. Gated behind
// -short because seeding annotates every module on both sides; `make
// cluster-smoke` drives it explicitly.
func TestClusterSmokeFullCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster smoke skipped in -short mode")
	}
	fc := newFullCatalog(t)
	ids, names, nodes, oracle := fc.ids, fc.names, fc.nodes, fc.oracle

	// Whole-matrix byte equality: a query answered by scatter-gather over
	// three partial stores must be indistinguishable from one answered by
	// a node holding everything.
	_, oracleMatrix := fetch(t, oracle.ts.URL+"/api/matches")
	for _, name := range names {
		status, got := fetch(t, nodes[name].ts.URL+"/api/matches")
		if status != http.StatusOK {
			t.Fatalf("shard %s /matches status %d", name, status)
		}
		var o, g matchesBody
		mustUnmarshal(t, oracleMatrix, &o)
		mustUnmarshal(t, got, &g)
		if g.Partial {
			t.Fatalf("shard %s answered partial on a healthy cluster (failed: %v)", name, g.FailedShards)
		}
		if !bytes.Equal(o.Matrix, g.Matrix) {
			t.Fatalf("shard %s matrix differs from oracle (%d vs %d bytes)", name, len(g.Matrix), len(o.Matrix))
		}
	}

	// The substitute query of every target, from every shard, must match
	// the oracle byte for byte: each target exercises its own combination
	// of pruned candidates and contacted shards.
	for _, id := range ids {
		path := "/api/modules/" + id + "/substitutes"
		ostatus, want := fetch(t, oracle.ts.URL+path)
		for _, name := range names {
			status, got := fetch(t, nodes[name].ts.URL+path)
			if status != ostatus {
				t.Fatalf("substitutes(%s) via %s: status %d, oracle %d", id, name, status, ostatus)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("substitutes(%s) via %s differs from oracle:\n got: %s\nwant: %s", id, name, got, want)
			}
		}
	}
}

func mustUnmarshal(t *testing.T, data []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("decoding %.80s...: %v", data, err)
	}
}

// TestComposeClusterMatchesSingleNode: /compose answered by any shard of
// the three-way full catalog — which keys the sets it fetches from other
// owners once per request — must be byte-identical to the single-node
// answer over the same catalog, for plain, like=, use= and avoid=
// queries at depth 2 and the default depth.
func TestComposeClusterMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster compose skipped in -short mode")
	}
	fc := newFullCatalog(t)
	base := url.Values{"in": {simulation.CDNASequence}, "out": {simulation.CAccList}}
	var queries []string
	for _, depth := range []string{"2", ""} {
		for _, extra := range []url.Values{
			{},
			{"like": {"ssearch"}},
			{"use": {simulation.CProtSequence}},
			{"avoid": {simulation.CRNASequence}},
		} {
			q := url.Values{}
			for k, v := range base {
				q[k] = v
			}
			for k, v := range extra {
				q[k] = v
			}
			if depth != "" {
				q.Set("depth", depth)
			}
			queries = append(queries, "/api/compose?"+q.Encode())
		}
	}
	for _, path := range queries {
		status, want := fetch(t, fc.oracle.ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("oracle %s: status %d: %s", path, status, want)
		}
		var plans struct {
			Count int `json:"count"`
		}
		mustUnmarshal(t, want, &plans)
		if plans.Count == 0 {
			t.Fatalf("oracle %s planned nothing", path)
		}
		for _, name := range fc.names {
			status, got := fetch(t, fc.nodes[name].ts.URL+path)
			if status != http.StatusOK {
				t.Fatalf("%s via %s: status %d: %s", path, name, status, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s via %s differs from the single node:\n got: %.600s\nwant: %.600s", path, name, got, want)
			}
		}
	}
}

// TestComposeClusterGathersOncePerState: a cluster /compose gathers the
// shards' sets once per cluster state. The first request runs the info
// round and the sets gather and builds the view; a repeat runs only the
// info round and plans over the cached view. With a shard down the
// answer is partial, planned over an uncached view, and names every
// module the dead shard owns.
func TestComposeClusterGathersOncePerState(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster compose skipped in -short mode")
	}
	fc := newFullCatalog(t)
	srv := fc.nodes["s1"].srv
	serve := func() (map[shardCall]int, string, composeResponse) {
		t.Helper()
		tracer := telemetry.NewTracer(4)
		q := url.Values{"in": {simulation.CDNASequence}, "out": {simulation.CAccList}, "depth": {"2"}}
		req := httptest.NewRequest(http.MethodGet, "/compose?"+q.Encode(), nil)
		req = req.WithContext(telemetry.WithTracer(req.Context(), tracer))
		rec := httptest.NewRecorder()
		srv.handleCompose(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("/compose: status %d: %s", rec.Code, rec.Body)
		}
		view := ""
		for _, tr := range tracer.Recent() {
			for _, a := range tr.Attrs {
				if tr.Name == "compose.plan" && a.Key == "view" {
					view = a.Value
				}
			}
		}
		var resp composeResponse
		mustUnmarshal(t, rec.Body.Bytes(), &resp)
		return fc.calls.take(), view, resp
	}
	perShard := func(shards []string, paths ...string) map[shardCall]int {
		want := map[shardCall]int{}
		for _, name := range shards {
			for _, path := range paths {
				want[shardCall{name, path}] = 1
			}
		}
		return want
	}
	fc.calls.take()
	calls, view, _ := serve()
	if want := perShard(fc.names, "/cluster/info", "/cluster/sets"); view != "built" || !reflect.DeepEqual(calls, want) {
		t.Fatalf("cold /compose: view %q, calls %v; want built, %v", view, calls, want)
	}
	calls, view, _ = serve()
	if want := perShard(fc.names, "/cluster/info"); view != "hit" || !reflect.DeepEqual(calls, want) {
		t.Fatalf("repeat /compose: view %q, calls %v; want hit, %v", view, calls, want)
	}

	fc.nodes["s3"].ts.Close()
	var lost []string
	for _, id := range fc.ids {
		if fc.ring.Owner(id) == "s3" {
			lost = append(lost, id)
		}
	}
	calls, view, resp := serve()
	want := perShard([]string{"s1", "s2"}, "/cluster/info", "/cluster/sets")
	want[shardCall{"s3", "/cluster/info"}] = 1 // attempted, refused
	if view != "uncached" || !reflect.DeepEqual(calls, want) {
		t.Fatalf("/compose with s3 down: view %q, calls %v; want uncached, %v", view, calls, want)
	}
	if !resp.Partial || !reflect.DeepEqual(resp.FailedModules, lost) {
		t.Fatalf("/compose with s3 down: partial=%v, %d failed modules; want partial with s3's %d", resp.Partial, len(resp.FailedModules), len(lost))
	}
}

// TestClusterSubstitutesContactsFeasibleOwners: a scatter /substitutes
// contacts exactly the shards owning a feasible candidate of the target —
// the owners of the candidates the oracle's own CatalogIndex leaves
// unpruned — once each, from whichever shard the query lands on. A
// target with no feasible candidate contacts no shard, counts no
// scatter, and still answers 200.
func TestClusterSubstitutesContactsFeasibleOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster scatter skipped in -short mode")
	}
	fc := newFullCatalog(t)
	fc.calls.take()
	reach := map[int]int{} // shards contacted → targets
	feasible := 0
	for _, id := range fc.ids {
		owners, n := fc.feasibleOwners(t, id)
		feasible += n
		reach[len(owners)]++
		for _, name := range fc.names {
			scatters := fc.nodes[name].node.Metrics.ScatterRequests.With("substitutes")
			before := scatters.Value()
			status, body := fetch(t, fc.nodes[name].ts.URL+"/api/modules/"+id+"/substitutes")
			if status != http.StatusOK {
				t.Fatalf("substitutes(%s) via %s: status %d: %s", id, name, status, body)
			}
			got := onPath(fc.calls.take(), "/cluster/substitutes")
			if len(got) != len(owners) {
				t.Fatalf("substitutes(%s) via %s contacted %v, want the feasible owners %v", id, name, got, owners)
			}
			for shard, calls := range got {
				if !owners[shard] || calls != 1 {
					t.Fatalf("substitutes(%s) via %s contacted %v, want the feasible owners %v once each", id, name, got, owners)
				}
			}
			wantScatters := uint64(0)
			if n > 0 {
				wantScatters = 1
			}
			if d := scatters.Value() - before; d != wantScatters {
				t.Fatalf("substitutes(%s) via %s (%d feasible) counted %d scatters, want %d", id, name, n, d, wantScatters)
			}
		}
	}
	t.Logf("%d feasible candidates over %d targets; targets by shards contacted: %v", feasible, len(fc.ids), reach)
	if reach[0] == 0 {
		t.Fatal("no target without feasible candidates — the zero-contact case went untested")
	}
}

// TestClusterSubstitutesScatterSpan: the scatter records a
// cluster.substitutes span naming the candidates it considered, how many
// survived the prune, and the shards it contacted.
func TestClusterSubstitutesScatterSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster scatter skipped in -short mode")
	}
	fc := newFullCatalog(t)
	srv := fc.nodes["s1"].srv
	for _, id := range fc.ids {
		owners, n := fc.feasibleOwners(t, id)
		if len(owners) < 2 {
			continue
		}
		tracer := telemetry.NewTracer(4)
		m, _, _ := srv.Registry.Lookup(id)
		req := httptest.NewRequest(http.MethodGet, "/modules/"+id+"/substitutes", nil)
		req = req.WithContext(telemetry.WithTracer(req.Context(), tracer))
		rec := httptest.NewRecorder()
		srv.scatterSubstitutes(rec, req, m, 0)
		if rec.Code != http.StatusOK {
			t.Fatalf("substitutes(%s): status %d: %s", id, rec.Code, rec.Body)
		}
		traces := tracer.Recent()
		if len(traces) != 1 || traces[0].Name != "cluster.substitutes" {
			t.Fatalf("substitutes(%s) recorded %+v, want one cluster.substitutes span", id, traces)
		}
		attrs := map[string]string{}
		for _, a := range traces[0].Attrs {
			attrs[a.Key] = a.Value
		}
		var shards []string
		for _, name := range fc.names {
			if owners[name] {
				shards = append(shards, name)
			}
		}
		want := map[string]string{
			"target":     id,
			"candidates": strconv.Itoa(len(srv.Registry.Available()) - 1),
			"feasible":   strconv.Itoa(n),
			"shards":     strings.Join(shards, ","),
		}
		for k, v := range want {
			if attrs[k] != v {
				t.Errorf("substitutes(%s) span %s = %q, want %q (attrs %v)", id, k, attrs[k], v, attrs)
			}
		}
		return
	}
	t.Fatal("no target reaches two shards")
}

// TestClusterSubstitutesDeadShardWithoutFeasibleCandidates: with one
// shard of the full catalog dead, a target whose examples are reachable
// and whose feasible candidates all live on live shards answers complete
// and byte-identical to the oracle; a target with a feasible candidate on
// the dead shard answers partial, naming that shard.
func TestClusterSubstitutesDeadShardWithoutFeasibleCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster degradation skipped in -short mode")
	}
	fc := newFullCatalog(t)
	const dead = "s3"
	fc.nodes[dead].ts.Close()

	var complete, partial int
	for _, id := range fc.ids {
		if fc.ring.Owner(id) == dead {
			continue // its examples are unreachable
		}
		owners, _ := fc.feasibleOwners(t, id)
		path := "/api/modules/" + id + "/substitutes"
		_, want := fetch(t, fc.oracle.ts.URL+path)
		for _, name := range fc.names {
			if name == dead {
				continue
			}
			status, got := fetch(t, fc.nodes[name].ts.URL+path)
			if status != http.StatusOK {
				t.Fatalf("substitutes(%s) via %s: status %d: %s", id, name, status, got)
			}
			if !owners[dead] {
				if !bytes.Equal(want, got) {
					t.Fatalf("substitutes(%s) via %s with no feasible candidate on %s differs from oracle:\n got: %s\nwant: %s",
						id, name, dead, got, want)
				}
				complete++
				continue
			}
			var body struct {
				Partial      bool     `json:"partial"`
				FailedShards []string `json:"failedShards"`
			}
			mustUnmarshal(t, got, &body)
			if !body.Partial || len(body.FailedShards) != 1 || body.FailedShards[0] != dead {
				t.Fatalf("substitutes(%s) via %s with a feasible candidate on %s: partial=%v failed=%v",
					id, name, dead, body.Partial, body.FailedShards)
			}
			partial++
		}
	}
	t.Logf("with %s dead: %d complete answers, %d partial", dead, complete, partial)
	if complete == 0 || partial == 0 {
		t.Fatalf("only one case exercised: %d complete, %d partial", complete, partial)
	}
}

// TestClusterMatchesContactsOnlyInfoWhenUnchanged: a cold cluster
// /matches costs one /cluster/info and one /cluster/sets call per shard
// and no other intra-cluster call; revalidating its ETag — even on
// shards that never built the matrix — costs one /cluster/info call per
// shard and gathers no set.
func TestClusterMatchesContactsOnlyInfoWhenUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster matrix skipped in -short mode")
	}
	fc := newFullCatalog(t)
	perShard := func(paths ...string) map[shardCall]int {
		want := map[shardCall]int{}
		for _, name := range fc.names {
			for _, path := range paths {
				want[shardCall{name, path}] = 1
			}
		}
		return want
	}
	fc.calls.take()
	resp := getWithETag(t, fc.nodes["s1"].ts.URL+"/api/matches", "", nil)
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("cold /matches on s1: status %d, ETag %q", resp.StatusCode, etag)
	}
	if got, want := fc.calls.take(), perShard("/cluster/info", "/cluster/sets"); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold /matches on s1 made calls %v, want %v", got, want)
	}
	for _, name := range []string{"s2", "s3"} {
		resp := getWithETag(t, fc.nodes[name].ts.URL+"/api/matches", etag, nil)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("revalidation on %s: status %d, want 304", name, resp.StatusCode)
		}
		if got, want := fc.calls.take(), perShard("/cluster/info"); !reflect.DeepEqual(got, want) {
			t.Fatalf("revalidation on %s made calls %v, want %v", name, got, want)
		}
	}
}

// TestClusterMatchesSpan: a cluster /matches records a cluster.matrix
// span naming the shards whose sets it gathered, the failed shards and
// the number of sets; a 304 and a cache hit gather nothing.
func TestClusterMatchesSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster matrix skipped in -short mode")
	}
	fc := newFullCatalog(t)
	srv := fc.nodes["s1"].srv
	serve := func(etag string) (int, map[string]string) {
		t.Helper()
		tracer := telemetry.NewTracer(4)
		req := httptest.NewRequest(http.MethodGet, "/matches", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		req = req.WithContext(telemetry.WithTracer(req.Context(), tracer))
		rec := httptest.NewRecorder()
		srv.handleMatches(rec, req)
		traces := tracer.Recent()
		if len(traces) != 1 || traces[0].Name != "cluster.matrix" {
			t.Fatalf("/matches recorded %+v, want one cluster.matrix span", traces)
		}
		attrs := map[string]string{}
		for _, a := range traces[0].Attrs {
			attrs[a.Key] = a.Value
		}
		return rec.Code, attrs
	}
	check := func(step string, got, want map[string]string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: span attrs %v, want %v", step, got, want)
		}
	}
	status, attrs := serve("")
	if status != http.StatusOK {
		t.Fatalf("cold /matches: status %d", status)
	}
	check("cold", attrs, map[string]string{"shards": "s1,s2,s3", "failed": "", "sets": strconv.Itoa(len(fc.ids))})
	etag := `"` + srv.matches.key + `"`
	for _, step := range []struct {
		name, etag string
		status     int
	}{{"304", etag, http.StatusNotModified}, {"cache hit", "", http.StatusOK}} {
		status, attrs := serve(step.etag)
		if status != step.status {
			t.Fatalf("%s: status %d, want %d", step.name, status, step.status)
		}
		check(step.name, attrs, map[string]string{"shards": "", "failed": "", "sets": "0"})
	}
}
