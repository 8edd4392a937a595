package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"testing"

	"dexa/internal/compose"
	"dexa/internal/simulation"
)

// composeGolden lists the golden /compose requests of the full catalog:
// every primary signature pair, each anchored on the first module (by ID)
// carrying it, crossed with plain, like=, use= and avoid= requests at
// depth 2 and the default depth, plus a limit=1 request per pair. It
// also returns a pair's request that finds no chain.
func composeGolden(t *testing.T, n *catalogNode) (queries []string, noChain string) {
	t.Helper()
	type pair struct{ in, out string }
	anchor := map[pair]string{}
	for _, m := range n.srv.Registry.Available() {
		if !m.Bound() || len(m.Inputs) == 0 || len(m.Outputs) == 0 {
			continue
		}
		p := pair{m.Inputs[0].Semantic, m.Outputs[0].Semantic}
		if p.in == "" || p.out == "" {
			continue
		}
		if _, ok := anchor[p]; !ok {
			anchor[p] = m.ID
		}
	}
	pairs := make([]pair, 0, len(anchor))
	for p := range anchor {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].in != pairs[j].in {
			return pairs[i].in < pairs[j].in
		}
		return pairs[i].out < pairs[j].out
	})
	for _, p := range pairs {
		base := url.Values{"in": {p.in}, "out": {p.out}}.Encode()
		for _, depth := range []string{"&depth=2", ""} {
			for _, extra := range []string{"", "&like=" + url.QueryEscape(anchor[p]),
				"&use=" + url.QueryEscape(p.in), "&avoid=" + url.QueryEscape(simulation.CRNASequence)} {
				queries = append(queries, base+depth+extra)
			}
		}
		queries = append(queries, base+"&limit=1")
		// A pair read backwards finds no chain unless some module
		// converts its output concept back into its input concept.
		if _, ok := anchor[pair{p.out, p.in}]; !ok && noChain == "" && p.in != p.out {
			noChain = url.Values{"in": {p.out}, "out": {p.in}, "depth": {"1"}}.Encode()
		}
	}
	return queries, noChain
}

// composeOracle renders the /compose body of query from a freshly built
// per-call planner over the node's store, encoded whole.
func composeOracle(t *testing.T, n *catalogNode, query string) []byte {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	depth, _ := strconv.Atoi(q.Get("depth"))
	limit, _ := strconv.Atoi(q.Get("limit"))
	p := &compose.Planner{Ont: n.srv.Comparer.Ont, Reg: n.srv.Registry, Keyed: n.srv.storeKeyed}
	plans, err := p.Plan(compose.Constraints{
		In: q.Get("in"), Out: q.Get("out"), MustUse: q["use"], MustAvoid: q["avoid"],
		Like: q.Get("like"), MaxDepth: depth, MaxPlans: limit,
	})
	if err != nil {
		t.Fatalf("oracle %s: %v", query, err)
	}
	body, err := encodeJSONBody(newComposeResponse(q.Get("in"), q.Get("out"), plans))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestComposeFullCatalogBodies: over the full simulated catalog, every
// golden /compose request served twice — first rendering its plans'
// entries, then from the entries kept with the memoised plans — equals,
// byte for byte, the whole encodeJSONBody rendering of a per-call
// planner's plans. A limit=1 request per pair splices one entry, and a
// request with no chain renders an empty plan list.
func TestComposeFullCatalogBodies(t *testing.T) {
	n := newCatalogNode(t)
	h := n.srv.Handler()
	queries, noChain := composeGolden(t, n)
	if noChain == "" {
		t.Fatal("every signature pair converts back: no request without a chain")
	}
	queries = append(queries, noChain)
	for _, query := range queries {
		want := composeOracle(t, n, query)
		for _, pass := range []string{"first", "kept"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/compose?"+query, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s /compose?%s: status %d: %s", pass, query, rec.Code, rec.Body)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				at := 0
				for at < min(len(got), len(want)) && got[at] == want[at] {
					at++
				}
				t.Fatalf("%s /compose?%s differs from the oracle at byte %d\n got: %.300s\nwant: %.300s",
					pass, query, at, got[max(0, at-100):], want[max(0, at-100):])
			}
		}
	}
	if body := composeOracle(t, n, noChain); !bytes.Contains(body, []byte(`"plans": [],`)) {
		t.Errorf("/compose?%s plans something: %.300s", noChain, body)
	}
}
