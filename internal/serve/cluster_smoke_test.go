package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/url"
	"testing"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/match"
	"dexa/internal/simulation"
	"dexa/internal/store"
)

// fullCatalog is the full simulated 252-module catalog sharded three
// ways plus a single-node oracle holding every annotation.
type fullCatalog struct {
	ids    []string
	names  []string
	nodes  map[string]*clusterNode
	oracle *clusterNode
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

	nodes := map[string]*clusterNode{}
	for _, name := range names {
		cn := newNode(name)
		node, err := cluster.NewShardNode(cfg, name, nil)
		if err != nil {
			t.Fatal(err)
		}
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
	return &fullCatalog{ids: ids, names: names, nodes: nodes, oracle: oracle}
}

// TestClusterSmokeFullCatalog is the acceptance smoke for the serving
// tier at catalog scale: the full simulated 252-module catalog sharded
// three ways, byte-compared against a single-node oracle on the whole
// match matrix and a sample of substitute queries. Gated behind -short
// because seeding annotates every module on both sides; `make
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

	// Substitute queries for a spread of targets, from every shard, must
	// match the oracle byte for byte.
	sample := ids
	if len(sample) > 12 {
		step := len(sample) / 12
		picked := make([]string, 0, 12)
		for i := 0; i < len(sample); i += step {
			picked = append(picked, sample[i])
		}
		sample = picked
	}
	for _, id := range sample {
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
