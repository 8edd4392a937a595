package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/compose"
	"dexa/internal/core"
	"dexa/internal/instances"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/store"
	"dexa/internal/typesys"
)

// clusterNode is one shard of an in-process cluster: a full Server on a
// real listener, so scatter-gather rounds travel over actual HTTP.
type clusterNode struct {
	name   string
	st     *store.Store
	source *store.Source
	node   *cluster.Node
	srv    *Server
	mux    *http.ServeMux
	ts     *httptest.Server
	// stopWatch, set by watch, stops the node's summary watch.
	stopWatch func()
}

// clusterWorld is a multi-shard cluster plus a single-node oracle over
// the same module universe: the oracle holds every annotation in one
// store, the cluster splits them by ring placement, and the acceptance
// bar is byte equality between their query answers.
type clusterWorld struct {
	ont    *ontology.Ontology
	pool   *instances.Pool
	reg    *registry.Registry
	cfg    cluster.Config
	ring   *cluster.Ring
	nodes  map[string]*clusterNode
	names  []string
	oracle *clusterNode // no Cluster wired; the reference answers
}

// clusterUniverse builds a six-module universe with two equivalence
// classes and a singleton, so rankings and the matrix have real shape.
func clusterUniverse(t *testing.T) (*ontology.Ontology, *instances.Pool, *registry.Registry) {
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
		seqModule("delta", func(s string) string { return "Y:" + s }),
		seqModule("eps", func(s string) string { return "Z:" + s }),
		seqModule("gamma", func(s string) string { return "Y:" + s }),
		seqModule("zeta", func(s string) string { return "X:" + s }),
	} {
		reg.MustRegister(m)
	}
	return o, p, reg
}

// newServeNode assembles one Server over a fresh store. The handler is
// mounted under /api — the prefix the cluster router dials — with the
// WAL feed at /wal, mirroring the dexa-serve layout.
func newServeNode(t *testing.T, name string, o *ontology.Ontology, p *instances.Pool, reg *registry.Registry, workers int) *clusterNode {
	t.Helper()
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	source := store.NewSource(st, core.NewGenerator(o, p))
	cmp := match.NewComparer(o, source)
	cmp.Workers = workers
	srv := &Server{Registry: reg, Store: st, Source: source, Comparer: cmp}
	mux := http.NewServeMux()
	return &clusterNode{name: name, st: st, source: source, srv: srv, mux: mux}
}

// start mounts the (possibly cluster-wired) handler and starts serving
// on ln.
func (n *clusterNode) start(t *testing.T, ln net.Listener) {
	t.Helper()
	n.mux.Handle("/api/", http.StripPrefix("/api", n.srv.Handler()))
	n.ts = &httptest.Server{Listener: ln, Config: &http.Server{Handler: n.mux}}
	n.ts.Start()
	t.Cleanup(n.kill)
}

// watch starts the node's summary watch of every other shard, as
// dexa-serve does at boot; kill stops it. Only a node with a search
// index is watched: a peer without one answers 501 and is judged down.
func (n *clusterNode) watch() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.node.Checker.Run(ctx)
	}()
	n.stopWatch = func() {
		cancel()
		<-done
	}
}

// kill shuts the node down as dexa-serve does: its summary watch stops,
// BeginDrain answers its parked long-polls, then the server closes.
func (n *clusterNode) kill() {
	if n.stopWatch != nil {
		n.stopWatch()
	}
	n.srv.BeginDrain()
	n.ts.Close()
}

func newClusterWorld(t *testing.T, shardNames []string, workers int) *clusterWorld {
	t.Helper()
	o, p, reg := clusterUniverse(t)
	w := &clusterWorld{ont: o, pool: p, reg: reg, nodes: map[string]*clusterNode{}, names: shardNames}

	// Listeners first: the membership config needs every URL before any
	// node starts.
	listeners := make(map[string]net.Listener, len(shardNames))
	for _, name := range shardNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[name] = ln
		w.cfg.Shards = append(w.cfg.Shards, cluster.ShardConfig{
			Name: name, URL: "http://" + ln.Addr().String(),
		})
	}
	ring, err := w.cfg.Ring()
	if err != nil {
		t.Fatal(err)
	}
	w.ring = ring

	for _, name := range shardNames {
		cn := newServeNode(t, name, o, p, reg, workers)
		node, err := cluster.NewShardNode(w.cfg, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		cn.node = node
		cn.srv.Cluster = node
		cn.mux.Handle("/wal", cluster.NewFeed(cn.st, nil))
		cn.start(t, listeners[name])
		w.nodes[name] = cn
	}

	w.oracle = newServeNode(t, "oracle", o, p, reg, workers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.oracle.start(t, ln)
	return w
}

func (w *clusterWorld) owner(id string) *clusterNode { return w.nodes[w.ring.Owner(id)] }

// seed annotates every module on its owner shard and on the oracle, and
// asserts both stored the same content (generation is deterministic, so
// a sharded catalog and a whole one must agree hash for hash).
func (w *clusterWorld) seed(t *testing.T) {
	t.Helper()
	for _, id := range w.reg.IDs() {
		e, _ := w.reg.Get(id)
		owner := w.owner(id)
		if _, _, err := owner.source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s on %s: %v", id, owner.name, err)
		}
		if _, _, err := w.oracle.source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s on oracle: %v", id, err)
		}
		oh, _ := owner.st.Hash(id)
		rh, _ := w.oracle.st.Hash(id)
		if oh != rh {
			t.Fatalf("module %s: shard hash %s, oracle hash %s — generation diverged", id, oh, rh)
		}
	}
}

// fetch returns one GET's status and body.
func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// matrixOf decodes a /matches body into its parts.
type matchesBody struct {
	State        string          `json:"state"`
	Matrix       json.RawMessage `json:"matrix"`
	Partial      bool            `json:"partial"`
	FailedShards []string        `json:"failedShards"`
}

// TestClusterMatchesEqualsOracle is the tentpole acceptance criterion:
// the scatter-gathered matrix equals the single-node build byte for
// byte, at every shard count and worker width.
func TestClusterMatchesEqualsOracle(t *testing.T) {
	for _, shards := range [][]string{{"s1", "s2"}, {"s1", "s2", "s3"}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", len(shards), workers), func(t *testing.T) {
				w := newClusterWorld(t, shards, workers)
				w.seed(t)
				status, oracleRaw := fetch(t, w.oracle.ts.URL+"/api/matches")
				if status != http.StatusOK {
					t.Fatalf("oracle /matches status %d", status)
				}
				var oracle matchesBody
				if err := json.Unmarshal(oracleRaw, &oracle); err != nil {
					t.Fatal(err)
				}
				for _, name := range w.names {
					status, raw := fetch(t, w.nodes[name].ts.URL+"/api/matches")
					if status != http.StatusOK {
						t.Fatalf("shard %s /matches status %d: %s", name, status, raw)
					}
					var got matchesBody
					if err := json.Unmarshal(raw, &got); err != nil {
						t.Fatal(err)
					}
					if got.Partial || len(got.FailedShards) != 0 {
						t.Fatalf("healthy cluster answered partial from %s: %+v", name, got)
					}
					if string(got.Matrix) != string(oracle.Matrix) {
						t.Fatalf("shard %s matrix differs from the oracle\nshard:  %.200s\noracle: %.200s",
							name, got.Matrix, oracle.Matrix)
					}
				}
			})
		}
	}
}

// TestClusterMatchesETag: an unchanged cluster revalidates with 304 and
// the second build is served from the router memo (one state key).
func TestClusterMatchesETag(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	w.seed(t)
	first := w.nodes["s1"].ts.URL + "/api/matches"
	resp, err := http.Get(first)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("cluster /matches carries no ETag")
	}
	req, _ := http.NewRequest(http.MethodGet, first, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp2.StatusCode)
	}
}

// TestClusterSubstitutesEqualsOracle: the merged ranking equals the
// single-node search byte for byte, from every serving shard — including
// ones that do not own the target and must fetch its examples remotely.
func TestClusterSubstitutesEqualsOracle(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 4)
	w.seed(t)
	for _, target := range []string{"alpha", "gamma", "eps"} {
		path := "/api/modules/" + target + "/substitutes"
		status, oracleBody := fetch(t, w.oracle.ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("oracle %s status %d", path, status)
		}
		for _, name := range w.names {
			status, body := fetch(t, w.nodes[name].ts.URL+path)
			if status != http.StatusOK {
				t.Fatalf("shard %s %s status %d: %s", name, path, status, body)
			}
			if string(body) != string(oracleBody) {
				t.Fatalf("shard %s ranking for %s differs from the oracle\nshard:  %s\noracle: %s",
					name, target, body, oracleBody)
			}
		}
		// The limit parameter caps the merged ranking identically.
		statusL, oracleLimited := fetch(t, w.oracle.ts.URL+path+"?limit=1")
		_, limited := fetch(t, w.nodes[w.names[0]].ts.URL+path+"?limit=1")
		if statusL != http.StatusOK || string(limited) != string(oracleLimited) {
			t.Fatalf("limited ranking for %s differs:\nshard:  %s\noracle: %s", target, limited, oracleLimited)
		}
	}
}

// TestClusterRedirects: reads and generation for a module another shard
// owns answer 307 to the owner, and a redirect-following client lands on
// the same bytes the owner serves.
func TestClusterRedirects(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	w.seed(t)

	// Find a module s1 does not own.
	var foreign string
	for _, id := range w.reg.IDs() {
		if w.ring.Owner(id) != "s1" {
			foreign = id
			break
		}
	}
	if foreign == "" {
		t.Skip("ring placed every module on s1")
	}
	path := "/api/modules/" + foreign + "/examples"

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(w.nodes["s1"].ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner examples status %d, want 307", resp.StatusCode)
	}
	wantLoc := w.cfg.ShardURL(w.ring.Owner(foreign)) + path
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("Location %q, want %q", loc, wantLoc)
	}

	// A following client reads the owner's bytes through the redirect.
	_, direct := fetch(t, w.cfg.ShardURL(w.ring.Owner(foreign))+path)
	status, followed := fetch(t, w.nodes["s1"].ts.URL+path)
	if status != http.StatusOK || string(followed) != string(direct) {
		t.Fatalf("followed redirect: status %d, body differs from owner's", status)
	}

	// POST /generate redirects too (307 preserves the method) and the
	// annotation lands in the owner's store, never the local one.
	genResp, err := http.Post(w.nodes["s1"].ts.URL+"/api/modules/"+foreign+"/generate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, genResp.Body)
	genResp.Body.Close()
	if genResp.StatusCode != http.StatusOK {
		t.Fatalf("redirected generate status %d", genResp.StatusCode)
	}
	if _, ok := w.nodes["s1"].st.Hash(foreign); ok {
		t.Errorf("non-owner shard stored %s despite the redirect", foreign)
	}
	if _, ok := w.owner(foreign).st.Hash(foreign); !ok {
		t.Errorf("owner shard did not store %s", foreign)
	}
}

// TestClusterPartialDegradation: a dead shard withholds its slice — the
// answer degrades to a flagged partial result instead of failing.
func TestClusterPartialDegradation(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2", "s3"}, 2)
	w.seed(t)

	status, fullRaw := fetch(t, w.nodes["s1"].ts.URL+"/api/matches")
	if status != http.StatusOK {
		t.Fatalf("healthy /matches status %d", status)
	}
	var full struct {
		Matrix struct {
			Cells []json.RawMessage `json:"cells"`
		} `json:"matrix"`
	}
	if err := json.Unmarshal(fullRaw, &full); err != nil {
		t.Fatal(err)
	}

	w.nodes["s3"].kill()

	status, raw := fetch(t, w.nodes["s1"].ts.URL+"/api/matches")
	if status != http.StatusOK {
		t.Fatalf("degraded /matches status %d: %s", status, raw)
	}
	var got matchesBody
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Partial || len(got.FailedShards) != 1 || got.FailedShards[0] != "s3" {
		t.Fatalf("degraded answer not flagged: partial=%v failed=%v", got.Partial, got.FailedShards)
	}
	var partial struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(got.Matrix, &partial); err != nil {
		t.Fatal(err)
	}
	if len(partial.Cells) >= len(full.Matrix.Cells) {
		t.Fatalf("partial matrix has %d cells, full had %d — the dead shard's pairs should be absent",
			len(partial.Cells), len(full.Matrix.Cells))
	}

	// Substitute search degrades the same way when the dead shard owned
	// candidates. Pick a target s1 owns so its examples stay reachable.
	var local string
	for _, id := range w.reg.IDs() {
		if w.ring.Owner(id) == "s1" {
			local = id
			break
		}
	}
	if local == "" {
		t.Skip("ring placed nothing on s1")
	}
	status, raw = fetch(t, w.nodes["s1"].ts.URL+"/api/modules/"+local+"/substitutes")
	if status != http.StatusOK {
		t.Fatalf("degraded substitutes status %d: %s", status, raw)
	}
	var subs struct {
		Partial      bool     `json:"partial"`
		FailedShards []string `json:"failedShards"`
	}
	if err := json.Unmarshal(raw, &subs); err != nil {
		t.Fatal(err)
	}
	if !subs.Partial || len(subs.FailedShards) != 1 || subs.FailedShards[0] != "s3" {
		t.Fatalf("degraded substitutes not flagged: %+v", subs)
	}
}

// TestClusterMatchesConcurrent: concurrent cold /matches requests on
// every shard share each node's matrix cache and all answer the oracle's
// matrix with the same ETag.
func TestClusterMatchesConcurrent(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2", "s3"}, 2)
	w.seed(t)
	_, oracleRaw := fetch(t, w.oracle.ts.URL+"/api/matches")
	var oracle matchesBody
	mustUnmarshal(t, oracleRaw, &oracle)
	type answer struct {
		status int
		etag   string
		body   matchesBody
		err    error
	}
	// Buffered for every request, so no sender blocks.
	answers := make(chan answer, 4*len(w.names))
	var wg sync.WaitGroup
	for i := 0; i < cap(answers); i++ {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			var a answer
			resp, err := http.Get(url)
			if err != nil {
				answers <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			a.status, a.etag = resp.StatusCode, resp.Header.Get("ETag")
			a.err = json.NewDecoder(resp.Body).Decode(&a.body)
			answers <- a
		}(w.nodes[w.names[i%len(w.names)]].ts.URL + "/api/matches")
	}
	wg.Wait()
	close(answers)
	var etag string
	for a := range answers {
		if a.err != nil {
			t.Fatalf("concurrent /matches: %v", a.err)
		}
		if a.status != http.StatusOK || a.body.Partial || a.etag == "" {
			t.Fatalf("concurrent /matches: status %d, partial %v, ETag %q", a.status, a.body.Partial, a.etag)
		}
		if etag == "" {
			etag = a.etag
		}
		if a.etag != etag || string(a.body.Matrix) != string(oracle.Matrix) {
			t.Fatalf("concurrent /matches answers differ: ETag %s vs %s, or matrix differs from the oracle", a.etag, etag)
		}
	}
}

// shardOutage is an http.RoundTripper that, while down is set, fails
// every call to one shard whose path ends in suffix ("" fails them all).
type shardOutage struct {
	host, suffix string
	down         atomic.Bool
}

func (o *shardOutage) RoundTrip(req *http.Request) (*http.Response, error) {
	if o.down.Load() && req.URL.Host == o.host && strings.HasSuffix(req.URL.Path, o.suffix) {
		return nil, errors.New("injected shard outage")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClusterPartialMatchesNeverCached: a partial /matches — a shard
// down for the state round, or answering it but failing the gather, so
// the state key is the healthy one — carries no ETag and is not cached:
// the first /matches after the shard recovers is complete, byte-equal
// to the oracle and carries the healthy ETag.
func TestClusterPartialMatchesNeverCached(t *testing.T) {
	for _, outage := range []struct{ name, suffix string }{
		{"every call", ""},
		{"sets only", "/cluster/sets"},
	} {
		t.Run(outage.name, func(t *testing.T) {
			w := newClusterWorld(t, []string{"s1", "s2", "s3"}, 2)
			w.seed(t)
			_, oracleRaw := fetch(t, w.oracle.ts.URL+"/api/matches")
			var oracle matchesBody
			mustUnmarshal(t, oracleRaw, &oracle)
			healthy := getWithETag(t, w.nodes["s2"].ts.URL+"/api/matches", "", nil).Header.Get("ETag")
			if healthy == "" {
				t.Fatal("healthy /matches carries no ETag")
			}

			rt := &shardOutage{host: strings.TrimPrefix(w.cfg.ShardURL("s3"), "http://"), suffix: outage.suffix}
			w.nodes["s1"].node.Router.Client = &http.Client{Transport: rt}
			url := w.nodes["s1"].ts.URL + "/api/matches"
			rt.down.Store(true)
			var partial matchesBody
			resp := getWithETag(t, url, "", &partial)
			if resp.StatusCode != http.StatusOK || !partial.Partial || !reflect.DeepEqual(partial.FailedShards, []string{"s3"}) {
				t.Fatalf("with s3 down: status %d, partial %v, failed %v", resp.StatusCode, partial.Partial, partial.FailedShards)
			}
			if etag := resp.Header.Get("ETag"); etag != "" {
				t.Fatalf("partial /matches carries ETag %s", etag)
			}

			rt.down.Store(false)
			var got matchesBody
			resp = getWithETag(t, url, "", &got)
			if resp.StatusCode != http.StatusOK || got.Partial || len(got.FailedShards) != 0 {
				t.Fatalf("after recovery: status %d, partial %v, failed %v", resp.StatusCode, got.Partial, got.FailedShards)
			}
			if string(got.Matrix) != string(oracle.Matrix) {
				t.Fatalf("after recovery the matrix differs from the oracle\nshard:  %.200s\noracle: %.200s", got.Matrix, oracle.Matrix)
			}
			if etag := resp.Header.Get("ETag"); etag != healthy {
				t.Fatalf("after recovery ETag %q, want the healthy %q", etag, healthy)
			}
		})
	}
}

// TestClusterFollowerServesReplicated: a follower tails a shard's WAL
// feed through the serving layer, mirrors its slice, serves it read-only
// and reports its replication position.
func TestClusterFollowerServesReplicated(t *testing.T) {
	w := newClusterWorld(t, []string{"s1"}, 2)
	leader := w.nodes["s1"]

	fn := newServeNode(t, "replica-1", w.ont, w.pool, w.reg, 2)
	fn.srv.Source = nil // followers never generate
	follower := &cluster.Follower{
		Leader: leader.ts.URL,
		Store:  fn.st,
		Wait:   50 * time.Millisecond,
	}
	fn.node = &cluster.Node{Config: w.cfg, Self: "replica-1", Role: cluster.RoleFollower, Follower: follower}
	fn.srv.Cluster = fn.node
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fn.start(t, ln)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go follower.Run(ctx)

	w.seed(t)
	deadline := time.Now().Add(5 * time.Second)
	for fn.st.Seq() != leader.st.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, leader at %d", fn.st.Seq(), leader.st.Seq())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Replicated reads serve the leader's bytes.
	path := "/api/modules/alpha/examples"
	_, leaderBody := fetch(t, leader.ts.URL+path)
	status, followerBody := fetch(t, fn.ts.URL+path)
	if status != http.StatusOK || string(followerBody) != string(leaderBody) {
		t.Fatalf("follower examples: status %d, body differs from leader", status)
	}

	// The follower identifies itself and reports its position.
	var info cluster.Info
	if resp := getJSON(t, fn.ts.URL+"/api/cluster/info", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /cluster/info status %d", resp.StatusCode)
	}
	if info.Role != cluster.RoleFollower || info.Shard != "replica-1" || info.Lag != 0 {
		t.Fatalf("follower info = %+v", info)
	}
	var stats struct {
		Cluster struct {
			Role        string `json:"role"`
			Replication *struct {
				Leader string `json:"leader"`
				Lag    uint64 `json:"lag"`
			} `json:"replication"`
		} `json:"cluster"`
	}
	if resp := getJSON(t, fn.ts.URL+"/api/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /stats status %d", resp.StatusCode)
	}
	if stats.Cluster.Role != cluster.RoleFollower || stats.Cluster.Replication == nil ||
		stats.Cluster.Replication.Leader != leader.ts.URL {
		t.Fatalf("follower stats cluster block = %+v", stats.Cluster)
	}

	// Writes are refused: the follower must not diverge from its leader.
	resp, err := http.Post(fn.ts.URL+"/api/modules/alpha/generate", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower generate status %d, want 403", resp.StatusCode)
	}

	// Local substitute search runs over the replicated slice.
	status, body := fetch(t, fn.ts.URL+"/api/modules/alpha/substitutes")
	if status != http.StatusOK || !strings.Contains(string(body), `"beta"`) {
		t.Fatalf("follower substitutes: status %d body %.200s", status, body)
	}
}

// TestClusterStatsShardBlock: a shard's /stats names its role, itself
// and every member's health verdict.
func TestClusterStatsShardBlock(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	var stats struct {
		Cluster struct {
			Role   string `json:"role"`
			Self   string `json:"self"`
			Shards []struct {
				Shard   string `json:"shard"`
				Healthy bool   `json:"healthy"`
			} `json:"shards"`
		} `json:"cluster"`
	}
	if resp := getJSON(t, w.nodes["s2"].ts.URL+"/api/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	c := stats.Cluster
	if c.Role != cluster.RoleShard || c.Self != "s2" || len(c.Shards) != 2 {
		t.Fatalf("stats cluster block = %+v", c)
	}
	for _, sh := range c.Shards {
		if !sh.Healthy {
			t.Errorf("shard %s reported unhealthy without any probe failing", sh.Shard)
		}
	}
}

// TestWatchDrainReleasesWaiters is the graceful-drain satellite: a
// parked /watch long-poll answers immediately once BeginDrain fires, and
// new waiters never park.
func TestWatchDrainReleasesWaiters(t *testing.T) {
	f := newLifecycleFixture(t)
	start := time.Now()
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(f.lts.URL + "/watch?cursor=0&wait=20s")
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park
	f.srv.BeginDrain()
	select {
	case code := <-done:
		if code != http.StatusNotModified {
			t.Fatalf("drained watch answered %d, want 304", code)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("drain did not release the parked /watch waiter")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drained waiter held for %v", elapsed)
	}
	// New waiters answer immediately during the drain window.
	before := time.Now()
	resp, err := http.Get(f.lts.URL + "/watch?cursor=0&wait=20s")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || time.Since(before) > 2*time.Second {
		t.Fatalf("post-drain watch: status %d after %v", resp.StatusCode, time.Since(before))
	}
}

// TestClusterShardFailureNotFoundByStatus: a shard that fails with a 500
// is a shard failure even when its URL contains "404". /substitutes for a
// module it owns answers 502, not 404, and /compose lists its modules in
// failedModules and flags the plan set partial. The partial /compose body
// equals, byte for byte, the whole rendering of a per-call planner's
// plans over the reachable annotations with partial and failedModules
// set after count.
func TestClusterShardFailureNotFoundByStatus(t *testing.T) {
	o, p, reg := clusterUniverse(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "store unavailable", http.StatusInternalServerError)
	}))
	defer dead.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Shards: []cluster.ShardConfig{
		{Name: "s1", URL: "http://" + ln.Addr().String()},
		{Name: "s2", URL: dead.URL + "/dead404"},
	}}
	cn := newServeNode(t, "s1", o, p, reg, 2)
	node, err := cluster.NewShardNode(cfg, "s1", nil)
	if err != nil {
		t.Fatal(err)
	}
	cn.node, cn.srv.Cluster = node, node
	cn.start(t, ln)

	var foreign []string
	for _, id := range reg.IDs() {
		if node.Owns(id) {
			e, _ := reg.Get(id)
			if _, _, err := cn.source.Generate(e.Module); err != nil {
				t.Fatal(err)
			}
		} else {
			foreign = append(foreign, id)
		}
	}
	if len(foreign) == 0 {
		t.Skip("ring placed every module on s1")
	}

	status, body := fetch(t, cn.ts.URL+"/api/modules/"+foreign[0]+"/substitutes")
	if status != http.StatusBadGateway {
		t.Errorf("substitutes of %s on a failing owner: status %d, want 502: %s", foreign[0], status, body)
	}

	var resp struct {
		Partial       bool     `json:"partial"`
		FailedModules []string `json:"failedModules"`
	}
	status, body = fetch(t, cn.ts.URL+"/api/compose?in=Seq&out=Acc")
	if status != http.StatusOK {
		t.Fatalf("compose status %d: %s", status, body)
	}
	mustUnmarshal(t, body, &resp)
	if !resp.Partial || strings.Join(resp.FailedModules, ",") != strings.Join(foreign, ",") {
		t.Errorf("compose partial=%v failedModules=%v, want partial with %v", resp.Partial, resp.FailedModules, foreign)
	}
	// s1's store holds exactly the sets the partial gather reaches.
	plans, err := (&compose.Planner{Ont: o, Reg: reg, Keyed: cn.srv.storeKeyed}).Plan(compose.Constraints{In: "Seq", Out: "Acc"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := newComposeResponse("Seq", "Acc", plans)
	oracle.Partial, oracle.FailedModules = true, foreign
	want, err := encodeJSONBody(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || !bytes.Equal(body, want) {
		t.Errorf("partial compose body of %d plans differs from the oracle\n got: %s\nwant: %s", len(plans), body, want)
	}
}
