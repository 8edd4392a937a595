package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/match"
	"dexa/internal/search"
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
// path it asked for, without the /api mount prefix. A long-poll, a call
// carrying ?wait=, is a watch poll and counts under the path plus "?wait".
type shardCall struct{ shard, path string }

// shardCalls is an http.RoundTripper that counts the calls each shard
// receives, by shard and path, and those it answered 304 or 200.
type shardCalls struct {
	shardOf map[string]string // host:port → shard name
	mu      sync.Mutex
	got     map[shardCall]int
	got304  map[shardCall]int
	got200  map[shardCall]int // reset by take200 only
}

func (c *shardCalls) RoundTrip(req *http.Request) (*http.Response, error) {
	call := shardCall{c.shardOf[req.URL.Host], strings.TrimPrefix(req.URL.Path, "/api")}
	if req.URL.Query().Has("wait") {
		call.path += "?wait"
	}
	c.mu.Lock()
	c.got[call]++
	c.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		c.mu.Lock()
		switch resp.StatusCode {
		case http.StatusNotModified:
			c.got304[call]++
		case http.StatusOK:
			c.got200[call]++
		}
		c.mu.Unlock()
	}
	return resp, err
}

// take200 returns the calls answered 200 since the last take200 and
// resets them.
func (c *shardCalls) take200() map[shardCall]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	got := c.got200
	c.got200 = map[shardCall]int{}
	return got
}

// requestPath drops the watch's long-polls from taken calls, leaving the
// calls made on a request's path.
func requestPath(calls map[shardCall]int) map[shardCall]int {
	for call := range calls {
		if strings.HasSuffix(call.path, "?wait") {
			delete(calls, call)
		}
	}
	return calls
}

// take returns the calls counted since the last take and resets them.
func (c *shardCalls) take() map[shardCall]int {
	got, _ := c.takeAll()
	return got
}

// takeAll is take that also returns the calls answered 304.
func (c *shardCalls) takeAll() (got, got304 map[shardCall]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	got, got304 = c.got, c.got304
	c.got, c.got304 = map[shardCall]int{}, map[shardCall]int{}
	return got, got304
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
	calls := &shardCalls{shardOf: map[string]string{}, got: map[shardCall]int{}, got304: map[shardCall]int{}, got200: map[shardCall]int{}}
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
	others := []string{"s2", "s3"} // s1 reads its own seq and sets locally
	if want := perShard(others, "/cluster/info", "/cluster/sets"); view != "built" || !reflect.DeepEqual(calls, want) {
		t.Fatalf("cold /compose: view %q, calls %v; want built, %v", view, calls, want)
	}
	calls, view, _ = serve()
	if want := perShard(others, "/cluster/info"); view != "hit" || !reflect.DeepEqual(calls, want) {
		t.Fatalf("repeat /compose: view %q, calls %v; want hit, %v", view, calls, want)
	}

	fc.nodes["s3"].kill()
	var lost []string
	for _, id := range fc.ids {
		if fc.ring.Owner(id) == "s3" {
			lost = append(lost, id)
		}
	}
	calls, view, resp := serve()
	want := perShard([]string{"s2"}, "/cluster/info", "/cluster/sets")
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

// TestClusterSubstitutesWarm: a warm scatter /substitutes answers from
// kept bytes and crosses the network only to revalidate the target's
// examples. Every target is asked of every shard twice; the second time
// a shard owning the target makes no intra-cluster call, and any other
// shard makes one, a GET of the target's examples that its owner answers
// 304, and scatters nothing. Both answers equal the single node's. When
// the owner stores a new set, a non-owning shard's next answer ranks it
// and carries its hash; a partial answer, with a candidate's shard down,
// is not kept, so the first answer after the shard recovers is complete.
func TestClusterSubstitutesWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster scatter skipped in -short mode")
	}
	fc := newFullCatalog(t)
	get := func(name, id string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(fc.nodes[name].ts.URL + "/api/modules/" + id + "/substitutes")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("substitutes(%s) via %s: status %d: %s", id, name, resp.StatusCode, body)
		}
		return resp, body
	}
	oracle := func(id string) []byte {
		t.Helper()
		_, want := fetch(t, fc.oracle.ts.URL+"/api/modules/"+id+"/substitutes")
		return want
	}
	for _, id := range fc.ids {
		want := oracle(id)
		owner := fc.ring.Owner(id)
		for _, name := range fc.names {
			for read := 0; read < 2; read++ {
				fc.calls.take()
				_, got := get(name, id)
				if !bytes.Equal(got, want) {
					t.Fatalf("substitutes(%s) via %s (read %d) differs from the oracle:\n got: %s\nwant: %s", id, name, read, got, want)
				}
			}
			calls, revalidated := fc.calls.takeAll()
			wantCalls := map[shardCall]int{}
			if name != owner {
				wantCalls[shardCall{owner, "/modules/" + id + "/examples"}] = 1
			}
			if !reflect.DeepEqual(calls, wantCalls) || !reflect.DeepEqual(revalidated, wantCalls) {
				t.Fatalf("warm substitutes(%s) via %s made calls %v (304: %v), want %v answered 304", id, name, calls, revalidated, wantCalls)
			}
		}
	}

	// A target with three examples or more and a feasible candidate on
	// s3, asked of s2 while s1 owns it.
	var target string
	for _, id := range fc.ids {
		set, _, _ := fc.nodes["s1"].st.Get(id)
		if owners, _ := fc.feasibleOwners(t, id); fc.ring.Owner(id) == "s1" && owners["s3"] && len(set) > 2 {
			target = id
			break
		}
	}
	if target == "" {
		t.Fatal("no target on s1 with three examples and a feasible candidate on s3")
	}
	full, _, _ := fc.nodes["s1"].st.Get(target)
	regenerate := func(n int) string {
		t.Helper()
		for _, st := range []*store.Store{fc.nodes["s1"].st, fc.oracle.st} {
			if _, _, err := st.Put(target, full[:n]); err != nil {
				t.Fatal(err)
			}
		}
		hash, _ := fc.oracle.st.Hash(target)
		return hash
	}
	check := func(step, hash string) {
		t.Helper()
		fc.calls.take()
		resp, got := get("s2", target)
		var body substitutesResponse
		mustUnmarshal(t, got, &body)
		if want := oracle(target); body.Hash != hash || !bytes.Equal(got, want) || resp.Header.Get("ETag") == "" {
			t.Fatalf("%s: substitutes(%s) via s2 carries hash %s and ETag %q, want %s and an ETag; body equals the oracle: %v",
				step, target, body.Hash, resp.Header.Get("ETag"), hash, bytes.Equal(got, want))
		}
		if calls, revalidated := fc.calls.takeAll(); len(revalidated) != 0 || len(onPath(calls, "/cluster/substitutes")) == 0 {
			t.Fatalf("%s: substitutes(%s) via s2 made calls %v (304: %v), want the new set fetched and a scatter", step, target, calls, revalidated)
		}
	}
	check("new set", regenerate(1))

	hash := regenerate(2)
	rt := &shardOutage{host: strings.TrimPrefix(fc.nodes["s3"].ts.URL, "http://")}
	fc.nodes["s2"].node.Router.Client = &http.Client{Transport: rt}
	rt.down.Store(true)
	resp, got := get("s2", target)
	var partial substitutesResponse
	mustUnmarshal(t, got, &partial)
	if !partial.Partial || !reflect.DeepEqual(partial.FailedShards, []string{"s3"}) || resp.Header.Get("ETag") != "" {
		t.Fatalf("substitutes(%s) via s2 with s3 down: partial %v, failed %v, ETag %q; want partial on s3 with no ETag",
			target, partial.Partial, partial.FailedShards, resp.Header.Get("ETag"))
	}
	rt.down.Store(false)
	fc.nodes["s2"].node.Router.Client = &http.Client{Transport: fc.calls}
	check("after recovery", hash)
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
	fc.nodes[dead].kill()

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
// /matches costs one /cluster/info and one /cluster/sets call per other
// shard and no other intra-cluster call — the serving shard reads its own
// seq and sets locally; revalidating its ETag — even on shards that never
// built the matrix — costs one /cluster/info call per other shard and
// gathers no set.
func TestClusterMatchesContactsOnlyInfoWhenUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster matrix skipped in -short mode")
	}
	fc := newFullCatalog(t)
	perOtherShard := func(self string, paths ...string) map[shardCall]int {
		want := map[shardCall]int{}
		for _, name := range fc.names {
			for _, path := range paths {
				if name != self {
					want[shardCall{name, path}] = 1
				}
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
	if got, want := fc.calls.take(), perOtherShard("s1", "/cluster/info", "/cluster/sets"); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold /matches on s1 made calls %v, want %v", got, want)
	}
	for _, name := range []string{"s2", "s3"} {
		resp := getWithETag(t, fc.nodes[name].ts.URL+"/api/matches", etag, nil)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("revalidation on %s: status %d, want 304", name, resp.StatusCode)
		}
		if got, want := fc.calls.take(), perOtherShard(name, "/cluster/info"); !reflect.DeepEqual(got, want) {
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

// withSearch gives every shard and the oracle a search index synced over
// the full catalog, and returns their syncers by node name ("oracle"
// for the oracle's), so a test that writes a store resyncs its index.
func (fc *fullCatalog) withSearch(t *testing.T) map[string]*search.Syncer {
	t.Helper()
	syncers := map[string]*search.Syncer{}
	for name, cn := range fc.nodes {
		syncers[name] = &search.Syncer{Registry: cn.srv.Registry, Store: cn.st, Index: search.New(cn.srv.Comparer.Ont)}
	}
	o := fc.oracle.srv
	syncers["oracle"] = &search.Syncer{Registry: o.Registry, Store: fc.oracle.st, Index: search.New(o.Comparer.Ont)}
	for name, sync := range syncers {
		sync.IndexAll()
		if name == "oracle" {
			o.SearchIndex = sync.Index
		} else {
			fc.nodes[name].srv.SearchIndex = sync.Index
		}
	}
	return syncers
}

// TestClusterSearchLocal: a shard answers /search from its own index,
// with the other shards' stored annotations lent by their summaries.
// Every behaves: query of the full catalog, a keyword sample and a
// concept: query equal the oracle's ranking from every shard; once the
// shard's summary watch holds every other shard's summary, a search makes
// no request-path call — it revalidates no summary and scatters no query;
// after an owner stores a new set, the watch brings that owner's new
// summary and the next search ranks the new set, still without a call.
func TestClusterSearchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster search skipped in -short mode")
	}
	fc := newFullCatalog(t)
	syncers := fc.withSearch(t)
	queries := []string{"sequence", "protein+blast", "kegg", "translate", "concept:" + simulation.CBioSequence}
	for _, id := range fc.ids {
		queries = append(queries, "behaves:"+id)
	}
	same := func(step, name, q string, got, want searchBody) {
		t.Helper()
		if got.Partial || !bytes.Equal(got.Hits, want.Hits) || got.Total != want.Total {
			t.Fatalf("%s: search %q via %s (partial %v, total %d) differs from the oracle (total %d):\n got: %.400s\nwant: %.400s",
				step, q, name, got.Partial, got.Total, want.Total, got.Hits, want.Hits)
		}
	}

	hits := 0
	for _, name := range fc.names {
		fc.nodes[name].watch()
		fc.waitWatched(t, name)
		fc.calls.take()
		for _, q := range queries {
			want := askSearch(t, fc.oracle.ts.URL, q)
			hits += want.Total
			same("warm", name, q, askSearch(t, fc.nodes[name].ts.URL, q), want)
			if calls := requestPath(fc.calls.take()); len(calls) != 0 {
				t.Fatalf("search %q via %s made request-path calls %v, want none", q, name, calls)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no query matched anything: the comparison proves nothing")
	}

	// A module with two examples or more on s1, its set truncated to one
	// on s1 and the oracle: s2's watch brings s1's new summary, and s2
	// ranks the new class.
	target := fc.truncateOnS1(t, syncers)
	waitHeld(t, fc.nodes["s2"], "s1", func(h cluster.HeldSummary) bool { return h.Generation == syncers["s1"].Index.Generation() })
	q := "behaves:" + target
	want := askSearch(t, fc.oracle.ts.URL, q)
	fc.calls.take()
	same("new set", "s2", q, askSearch(t, fc.nodes["s2"].ts.URL, q), want)
	if calls := requestPath(fc.calls.take()); len(calls) != 0 {
		t.Fatalf("search after a write on s1 made request-path calls %v, want none", calls)
	}
	var got []search.Hit
	mustUnmarshal(t, want.Hits, &got)
	if len(got) == 0 || got[0].ID != target || got[0].Examples != 1 {
		t.Fatalf("behaves:%s after the write ranks %+v, want the target first with one example", target, got)
	}
}

// askSearch runs one /search on base and decodes its 200 answer.
func askSearch(t *testing.T, base, q string) searchBody {
	t.Helper()
	status, raw := fetch(t, base+"/api/search?limit=300&q="+q)
	if status != http.StatusOK {
		t.Fatalf("search %q on %s: status %d: %s", q, base, status, raw)
	}
	var body searchBody
	mustUnmarshal(t, raw, &body)
	return body
}

// waitWatched waits until name's summary watch holds every other shard's
// summary current.
func (fc *fullCatalog) waitWatched(t *testing.T, name string) {
	t.Helper()
	for _, other := range fc.names {
		if other != name {
			waitHeld(t, fc.nodes[name], other, func(h cluster.HeldSummary) bool { return h.Watch == cluster.WatchWatched })
		}
	}
}

// truncateOnS1 picks a module s1 owns with two examples or more, stores
// its set truncated to one on s1 and on the oracle, resyncs both indexes
// and returns the module.
func (fc *fullCatalog) truncateOnS1(t *testing.T, syncers map[string]*search.Syncer) string {
	t.Helper()
	var target string
	for _, id := range fc.ids {
		if set, _, _ := fc.nodes["s1"].st.Get(id); fc.ring.Owner(id) == "s1" && len(set) > 1 {
			target = id
			break
		}
	}
	if target == "" {
		t.Fatal("no module on s1 with two examples or more")
	}
	full, _, _ := fc.nodes["s1"].st.Get(target)
	for _, name := range []string{"s1", "oracle"} {
		sync := syncers[name]
		if _, _, err := sync.Store.Put(target, full[:1]); err != nil {
			t.Fatal(err)
		}
		sync.Resync()
	}
	return target
}

// TestClusterSearchWatched: each shard keeps one long-poll open per other
// shard on its /cluster/summary, so a warm search makes no request-path
// summary call. A write on s1 reaches s2's held summary through its
// watch, and s2 then answers as the oracle does, still without a call,
// while s3's polls, whose index never moved, are never answered 200. A
// shard with parked polls drains and closes in under a second, and once
// s3 is gone s1's searches turn partial, naming s3, within 5 s.
func TestClusterSearchWatched(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog cluster search skipped in -short mode")
	}
	fc := newFullCatalog(t)
	syncers := fc.withSearch(t)
	queries := []string{"sequence", "concept:" + simulation.CBioSequence, "behaves:" + fc.ids[0]}
	for _, name := range fc.names {
		fc.nodes[name].watch()
	}
	for _, name := range fc.names {
		fc.waitWatched(t, name)
	}
	fc.calls.take()
	fc.calls.take200()
	for _, name := range fc.names {
		for _, q := range queries {
			got, want := askSearch(t, fc.nodes[name].ts.URL, q), askSearch(t, fc.oracle.ts.URL, q)
			if got.Partial || !bytes.Equal(got.Hits, want.Hits) {
				t.Fatalf("warm search %q via %s differs from the oracle", q, name)
			}
		}
	}
	if calls := onPath(requestPath(fc.calls.take()), "/cluster/summary"); len(calls) != 0 {
		t.Fatalf("warm searches made request-path summary calls %v, want none", calls)
	}

	target := fc.truncateOnS1(t, syncers)
	waitHeld(t, fc.nodes["s2"], "s1", func(h cluster.HeldSummary) bool {
		return h.Generation == syncers["s1"].Index.Generation() && h.Watch == cluster.WatchWatched
	})
	q := "behaves:" + target
	got, want := askSearch(t, fc.nodes["s2"].ts.URL, q), askSearch(t, fc.oracle.ts.URL, q)
	if got.Partial || !bytes.Equal(got.Hits, want.Hits) || got.Total != want.Total {
		t.Fatalf("search %q via s2 after the write differs from the oracle:\n got: %s\nwant: %s", q, got.Hits, want.Hits)
	}
	if calls := onPath(requestPath(fc.calls.take()), "/cluster/summary"); len(calls) != 0 {
		t.Fatalf("searches around the write made request-path summary calls %v, want none", calls)
	}
	if n := fc.calls.take200()[shardCall{"s3", "/cluster/summary?wait"}]; n != 0 {
		t.Fatalf("s3's index never moved, yet %d of its polls were answered 200", n)
	}

	start := time.Now()
	fc.nodes["s3"].kill()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("BeginDrain and Close of s3 with parked polls took %v, want under 1s", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var body searchBody
		resp := getWithETag(t, fc.nodes["s1"].ts.URL+"/api/search?q=sequence", "", &body)
		if body.Partial {
			if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(body.FailedShards, []string{"s3"}) || resp.Header.Get("ETag") != "" {
				t.Fatalf("search on s1 with s3 gone: status %d, failed %v, ETag %q; want 200, [s3], none",
					resp.StatusCode, body.FailedShards, resp.Header.Get("ETag"))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("s1's searches still complete 5s after s3 drained and closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
