package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"testing"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/search"
	"dexa/internal/store"
)

// searchFixture is the single-node fixture with every module annotated
// and a synced search index mounted.
func searchFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t, "")
	for _, id := range f.reg.IDs() {
		e, _ := f.reg.Get(id)
		if _, _, err := f.source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s: %v", id, err)
		}
	}
	sync := &search.Syncer{Registry: f.reg, Store: f.st, Index: search.New(f.ont)}
	sync.IndexAll()
	sync.HookAvailability()
	f.srv.SearchIndex = sync.Index
	return f
}

type searchBody struct {
	Query        string          `json:"query"`
	Hits         json.RawMessage `json:"hits"`
	Count        int             `json:"count"`
	Total        int             `json:"total"`
	NextCursor   string          `json:"nextCursor"`
	Generation   uint64          `json:"generation"`
	Partial      bool            `json:"partial"`
	FailedShards []string        `json:"failedShards"`
}

func (b searchBody) ids(t *testing.T) []string {
	t.Helper()
	var hits []search.Hit
	if err := json.Unmarshal(b.Hits, &hits); err != nil {
		t.Fatalf("decoding hits: %v", err)
	}
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.ID
	}
	return out
}

func TestSearchEndpoint(t *testing.T) {
	f := searchFixture(t)

	// Keyword: every module is named "module <id>".
	var body searchBody
	if resp := getJSON(t, f.ts.URL+"/search?q=module", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}
	if body.Total != 3 || body.Count != 3 {
		t.Fatalf("keyword search total=%d count=%d, want 3/3", body.Total, body.Count)
	}

	// Concept expansion: Seq reaches every Seq-annotated module.
	if resp := getJSON(t, f.ts.URL+"/search?q=concept:Seq", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("concept search status %d", resp.StatusCode)
	}
	if body.Total != 3 {
		t.Fatalf("concept:Seq total = %d, want 3", body.Total)
	}

	// Behavior class: alpha and beta share X:-prefixed outputs.
	if resp := getJSON(t, f.ts.URL+"/search?q=behaves:alpha", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("behaves search status %d", resp.StatusCode)
	}
	if ids := body.ids(t); !reflect.DeepEqual(ids, []string{"alpha", "beta"}) {
		t.Fatalf("behaves:alpha = %v, want [alpha beta]", ids)
	}

	// Malformed queries and limits answer 400.
	for _, bad := range []string{"/search?q=", "/search", "/search?q=module&limit=-1", "/search?q=module&cursor=garbage!!"} {
		if resp := getJSON(t, f.ts.URL+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Without an index the endpoint is explicitly not enabled.
	bare := newFixture(t, "")
	if resp := getJSON(t, bare.ts.URL+"/search?q=module", nil); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("indexless search status %d, want 501", resp.StatusCode)
	}

	// /stats carries the index block.
	var stats struct {
		Search *search.Stats `json:"search"`
	}
	if resp := getJSON(t, f.ts.URL+"/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	if stats.Search == nil || stats.Search.Docs != 3 || stats.Search.Terms == 0 || stats.Search.Generation == 0 {
		t.Fatalf("stats search block = %+v", stats.Search)
	}
}

// TestSearchETagRevalidation: an unchanged catalog answers 304; an index
// mutation changes the tag.
func TestSearchETagRevalidation(t *testing.T) {
	f := searchFixture(t)
	url := f.ts.URL + "/search?q=module"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("search response carries no ETag")
	}
	req, _ := http.NewRequest(http.MethodGet, url, nil)
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

	// Mutate the index: the old validator must stop matching.
	f.srv.SearchIndex.Remove("gamma")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation revalidation status %d, want 200", resp3.StatusCode)
	}
}

// TestSearchRetiredModuleDropsOut: the incremental-maintenance
// acceptance — one availability event and the module is out of the
// served results, no rebuild, no restart.
func TestSearchRetiredModuleDropsOut(t *testing.T) {
	f := searchFixture(t)
	var body searchBody
	getJSON(t, f.ts.URL+"/search?q=gamma", &body)
	if body.Total != 1 {
		t.Fatalf("pre-retire total = %d, want 1", body.Total)
	}
	if err := f.reg.SetAvailable("gamma", false); err != nil {
		t.Fatal(err)
	}
	getJSON(t, f.ts.URL+"/search?q=gamma", &body)
	if body.Total != 0 {
		t.Fatalf("retired module still served: %s", body.Hits)
	}
	if err := f.reg.SetAvailable("gamma", true); err != nil {
		t.Fatal(err)
	}
	getJSON(t, f.ts.URL+"/search?q=gamma", &body)
	if body.Total != 1 {
		t.Fatalf("re-admitted module missing, total = %d", body.Total)
	}
}

// TestSearchPaginationRestart: a cursor from before a catalog change
// answers 410 with the restart flag instead of a silently shifted page.
func TestSearchPaginationRestart(t *testing.T) {
	f := searchFixture(t)
	var page1 searchBody
	if resp := getJSON(t, f.ts.URL+"/search?q=module&limit=1", &page1); resp.StatusCode != http.StatusOK {
		t.Fatalf("page 1 status %d", resp.StatusCode)
	}
	if page1.NextCursor == "" || page1.Count != 1 {
		t.Fatalf("page 1 = count %d cursor %q", page1.Count, page1.NextCursor)
	}

	// Walking with the cursor works while the catalog holds still.
	var page2 searchBody
	if resp := getJSON(t, f.ts.URL+"/search?q=module&limit=1&cursor="+page1.NextCursor, &page2); resp.StatusCode != http.StatusOK {
		t.Fatalf("page 2 status %d", resp.StatusCode)
	}
	if ids1, ids2 := page1.ids(t), page2.ids(t); ids1[0] == ids2[0] {
		t.Fatalf("page 2 repeated page 1's hit %s", ids1[0])
	}

	// A mutation between pages expires the walk.
	f.srv.SearchIndex.Remove("beta")
	var gone struct {
		Error   string `json:"error"`
		Restart bool   `json:"restart"`
	}
	if resp := getJSON(t, f.ts.URL+"/search?q=module&limit=1&cursor="+page1.NextCursor, &gone); resp.StatusCode != http.StatusGone {
		t.Fatalf("stale cursor status %d, want 410", resp.StatusCode)
	}
	if !gone.Restart {
		t.Fatalf("410 body carries no restart flag: %+v", gone)
	}
}

// withClusterSearch wires a synced search index into every node of a
// cluster world (and its oracle). Every index covers the full registry —
// keyword and concept statistics must be identical on every shard — but
// behavior postings come from each node's own store slice.
func withClusterSearch(t *testing.T, w *clusterWorld) {
	t.Helper()
	for _, cn := range w.nodes {
		sync := &search.Syncer{Registry: w.reg, Store: cn.st, Index: search.New(w.ont)}
		sync.IndexAll()
		cn.srv.SearchIndex = sync.Index
	}
	sync := &search.Syncer{Registry: w.reg, Store: w.oracle.st, Index: search.New(w.ont)}
	sync.IndexAll()
	w.oracle.srv.SearchIndex = sync.Index
}

// waitHeld waits, up to 5 s, until n's router holds peer's summary in a
// state ok accepts.
func waitHeld(t *testing.T, n *clusterNode, peer string, ok func(cluster.HeldSummary) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, h := range n.node.Router.HeldSummaries(n.name) {
			if h.Shard == peer && ok(h) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's summary of %s did not reach the awaited state within 5s: %+v", n.name, peer, n.node.Router.HeldSummaries(n.name))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterSearchEqualsOracle: the scattered ranking — including
// behaves: anchors resolved on their owner shard, and a query nothing
// matches — equals the single-node ranking hit for hit, from every
// serving shard.
func TestClusterSearchEqualsOracle(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	w.seed(t)
	withClusterSearch(t, w)

	for _, q := range []string{"module", "concept:Seq", "behaves:alpha", "module+behaves:gamma", "nosuchterm"} {
		path := "/api/search?q=" + q
		status, oracleRaw := fetch(t, w.oracle.ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("oracle %s status %d: %s", path, status, oracleRaw)
		}
		var oracle searchBody
		mustUnmarshal(t, oracleRaw, &oracle)
		for _, name := range w.names {
			status, raw := fetch(t, w.nodes[name].ts.URL+path)
			if status != http.StatusOK {
				t.Fatalf("shard %s %s status %d: %s", name, path, status, raw)
			}
			var got searchBody
			mustUnmarshal(t, raw, &got)
			if got.Partial || len(got.FailedShards) != 0 {
				t.Fatalf("healthy cluster answered partial from %s: %s", name, raw)
			}
			if string(got.Hits) != string(oracle.Hits) || got.Total != oracle.Total {
				t.Fatalf("shard %s ranking for %q differs from the oracle\nshard:  %s\noracle: %s",
					name, q, got.Hits, oracle.Hits)
			}
		}
	}

	// Page walk: concatenating cluster pages reproduces the oracle's full
	// ranking.
	var oracleFull searchBody
	getJSON(t, w.oracle.ts.URL+"/api/search?q=module&limit=100", &oracleFull)
	var walked []search.Hit
	cursor := ""
	for {
		url := w.nodes["s1"].ts.URL + "/api/search?q=module&limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page searchBody
		if resp := getJSON(t, url, &page); resp.StatusCode != http.StatusOK {
			t.Fatalf("cluster page status %d", resp.StatusCode)
		}
		var hits []search.Hit
		mustUnmarshal(t, page.Hits, &hits)
		walked = append(walked, hits...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	var oracleHits []search.Hit
	mustUnmarshal(t, oracleFull.Hits, &oracleHits)
	if !reflect.DeepEqual(walked, oracleHits) {
		t.Fatalf("cluster page walk %d hits != oracle %d hits", len(walked), len(oracleHits))
	}
}

// TestClusterSearchPartialDegradation: a dead shard withholds its owned
// hits — the ranking degrades to a flagged partial answer, never ETag'd,
// that is the oracle's ranking without the dead shard's modules. With
// every other shard dead the node still answers, from its own modules.
func TestClusterSearchPartialDegradation(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2", "s3"}, 2)
	w.seed(t)
	withClusterSearch(t, w)

	queries := []string{"module", "concept:Seq"}
	for _, id := range w.reg.IDs() {
		if w.ring.Owner(id) == "s1" {
			queries = append(queries, "behaves:"+id)
		}
	}
	check := func(dead ...string) {
		t.Helper()
		for _, q := range queries {
			resp, err := http.Get(w.nodes["s1"].ts.URL + "/api/search?q=" + q)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("degraded search %q status %d: %s", q, resp.StatusCode, raw)
			}
			var got searchBody
			mustUnmarshal(t, raw, &got)
			if !got.Partial || !reflect.DeepEqual(got.FailedShards, dead) {
				t.Fatalf("degraded search %q not flagged: partial=%v failed=%v, want failed %v", q, got.Partial, got.FailedShards, dead)
			}
			if resp.Header.Get("ETag") != "" {
				t.Fatalf("partial search answer to %q carries an ETag", q)
			}
			var oracle searchBody
			getJSON(t, w.oracle.ts.URL+"/api/search?q="+q, &oracle)
			var want, hits []search.Hit
			mustUnmarshal(t, oracle.Hits, &want)
			mustUnmarshal(t, got.Hits, &hits)
			want = slices.DeleteFunc(want, func(h search.Hit) bool { return slices.Contains(dead, w.ring.Owner(h.ID)) })
			if len(want) == 0 || !reflect.DeepEqual(hits, want) {
				t.Fatalf("degraded search %q with %v dead ranks %+v, want the oracle's %+v without their modules", q, dead, hits, want)
			}
		}
	}
	w.nodes["s3"].kill()
	check("s3")
	w.nodes["s2"].kill()
	// s1's first search started its summary watch: wait until the watch
	// has seen s2 go, so the next search calls s2 instead of reading the
	// summary the watch held.
	waitHeld(t, w.nodes["s1"], "s2", func(h cluster.HeldSummary) bool { return h.Watch != cluster.WatchWatched })
	check("s2", "s3")
}

// TestComposeEndpoint: synthesis over the annotated fixture — one-step
// Seq→Acc plans, the alpha/beta behavior class collapsed to one slot
// with its peer listed, the disjoint gamma class as a separate plan.
func TestComposeEndpoint(t *testing.T) {
	f := searchFixture(t)
	var body struct {
		In    string `json:"in"`
		Out   string `json:"out"`
		Count int    `json:"count"`
		Plans []struct {
			Chain string `json:"chain"`
			Steps []struct {
				Module       string   `json:"module"`
				Equivalent   []string `json:"equivalent"`
				Alternatives int      `json:"alternatives"`
			} `json:"steps"`
			Verified bool              `json:"verified"`
			Witness  map[string]string `json:"witness"`
			Workflow json.RawMessage   `json:"workflow"`
		} `json:"plans"`
	}
	if resp := getJSON(t, f.ts.URL+"/compose?in=Seq&out=Acc", &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("compose status %d", resp.StatusCode)
	}
	if body.Count < 2 {
		t.Fatalf("compose produced %d plans, want >= 2 (two behavior classes)", body.Count)
	}
	sawEquivalent := false
	for _, p := range body.Plans {
		if !p.Verified {
			t.Errorf("plan %s not verified", p.Chain)
		}
		if len(p.Workflow) == 0 {
			t.Errorf("plan %s carries no workflow artifact", p.Chain)
		}
		if len(p.Witness) == 0 {
			t.Errorf("verified plan %s carries no witness", p.Chain)
		}
		for _, s := range p.Steps {
			if s.Alternatives < 2 {
				t.Errorf("step %s saw %d behavior classes, want >= 2", s.Module, s.Alternatives)
			}
			if s.Module == "alpha" && len(s.Equivalent) == 1 && s.Equivalent[0] == "beta" {
				sawEquivalent = true
			}
		}
	}
	if !sawEquivalent {
		t.Errorf("no plan listed beta as alpha's behavior-class peer: %+v", body.Plans)
	}

	// Constraint and parameter validation.
	if resp := getJSON(t, f.ts.URL+"/compose?in=Seq", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing out= status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, f.ts.URL+"/compose?in=Seq&out=Nope", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown concept status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, f.ts.URL+"/compose?in=Seq&out=Acc&depth=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad depth status %d, want 400", resp.StatusCode)
	}
}

// TestClusterSearchRestartedPeer: a shard whose search index is rebuilt,
// as a restart rebuilds it, up to the generation its peer holds but over
// different content is never taken for unchanged. Its /cluster/summary
// ETag and its /search ETags and cursors minted before no longer
// validate, and the peer refetches its summary (200) and ranks the new
// content as the oracle does.
func TestClusterSearchRestartedPeer(t *testing.T) {
	w := newClusterWorld(t, []string{"s1", "s2"}, 2)
	w.seed(t)
	withClusterSearch(t, w)
	s1, s2 := w.nodes["s1"], w.nodes["s2"]
	var target string
	for _, id := range w.reg.IDs() {
		if set, _, _ := s1.st.Get(id); w.ring.Owner(id) == "s1" && len(set) > 1 {
			target = id
			break
		}
	}
	if target == "" {
		t.Fatal("no module on s1 with two examples or more")
	}

	// s2 holds s1's summary from one call; its watch is not started, so
	// no poll is parked on s1 while the index is swapped.
	if v := s2.node.Router.SearchView(context.Background(), "s2"); len(v.FailedShards) != 0 {
		t.Fatalf("s2 could not fetch s1's summary: failed %v", v.FailedShards)
	}
	summaryETag := getWithETag(t, s1.ts.URL+"/api/cluster/summary", "", nil).Header.Get("ETag")
	var page searchBody
	resp := getWithETag(t, s1.ts.URL+"/api/search?q=module&limit=1", "", &page)
	searchETag := resp.Header.Get("ETag")
	if summaryETag == "" || searchETag == "" || page.NextCursor == "" {
		t.Fatalf("s1 minted summary ETag %q, search ETag %q, cursor %q", summaryETag, searchETag, page.NextCursor)
	}

	// The restart: s1 stores one example of the target, on the oracle
	// too, and a fresh index over s1's store reaches the old generation.
	full, _, _ := s1.st.Get(target)
	for _, st := range []*store.Store{s1.st, w.oracle.st} {
		if _, _, err := st.Put(target, full[:1]); err != nil {
			t.Fatal(err)
		}
	}
	(&search.Syncer{Registry: w.reg, Store: w.oracle.st, Index: w.oracle.srv.SearchIndex}).Resync()
	fresh := search.New(w.ont)
	(&search.Syncer{Registry: w.reg, Store: s1.st, Index: fresh}).IndexAll()
	if old := s1.srv.SearchIndex.Generation(); fresh.Generation() != old {
		t.Fatalf("the rebuilt index is at generation %d, the old one at %d", fresh.Generation(), old)
	}
	s1.srv.SearchIndex = fresh

	if resp := getWithETag(t, s1.ts.URL+"/api/cluster/summary", summaryETag, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("s1's summary revalidated with the old index's ETag: status %d, want 200", resp.StatusCode)
	}
	if resp := getWithETag(t, s1.ts.URL+"/api/search?q=module&limit=1", searchETag, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("s1's search revalidated with the old index's ETag: status %d, want 200", resp.StatusCode)
	}
	if resp := getWithETag(t, s1.ts.URL+"/api/search?q=module&limit=1&cursor="+page.NextCursor, "", nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("a cursor of the old index resumed on s1: status %d, want 410", resp.StatusCode)
	}

	q := "behaves:" + target
	var got, want searchBody
	getJSON(t, s2.ts.URL+"/api/search?q="+q, &got)
	getJSON(t, w.oracle.ts.URL+"/api/search?q="+q, &want)
	var hits []search.Hit
	mustUnmarshal(t, got.Hits, &hits)
	if got.Partial || string(got.Hits) != string(want.Hits) || len(hits) == 0 || hits[0].ID != target || hits[0].Examples != 1 {
		t.Fatalf("s2 ranks %q after s1's restart as %s, want the oracle's %s with %s first at one example", q, got.Hits, want.Hits, target)
	}
}
