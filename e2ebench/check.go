package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/serve"
	"dexa/internal/store"
)

// checker holds what every answer of a run is checked against. On a
// static catalog (lookup, plan, scatter) the warm-up learns one answer per
// distinct request, after validating it against the catalog's own
// annotations, and every timed answer must repeat it byte for byte. Churn
// answers move with the writer, so they are checked by kind instead.
type checker struct {
	w     *workload
	cat   *catalog
	plan  *plan
	keys  []string // request.key() of every request of the plan
	want  map[string]expected
	etags []string // per node: the /matches ETag conditional requests send
}

type expected struct {
	status int
	body   []byte
}

func newChecker(w *workload, cat *catalog, p *plan) *checker {
	keys := make([]string, len(p.requests))
	for i, r := range p.requests {
		keys[i] = r.key()
	}
	return &checker{w: w, cat: cat, plan: p, keys: keys, want: map[string]expected{}}
}

func (ck *checker) etag(r request) string {
	if !r.Cond {
		return ""
	}
	return ck.etags[r.Node]
}

// warmUp is the untimed warm-up at the end of set-up: every distinct
// request of the sequence once, in sequence order, so caches fill before
// the first timed request. On static workloads it also learns and
// validates the expected answers.
func (ck *checker) warmUp(top *topology) error {
	ctx := context.Background()
	c := newClient()
	defer c.close()
	ck.etags = make([]string, len(top.nodes))
	for i, n := range top.nodes {
		a, err := c.do(ctx, n.url, request{Method: "GET", Path: "/matches"}, "", "")
		if err != nil {
			return err
		}
		if a.status != http.StatusOK || a.etag == "" {
			return fmt.Errorf("%s /matches: status %d, etag %q", n.name, a.status, a.etag)
		}
		ck.etags[i] = a.etag
	}
	seen := map[string]bool{}
	for i, r := range ck.plan.requests {
		k := ck.keys[i]
		if seen[k] {
			continue
		}
		seen[k] = true
		a, err := c.do(ctx, top.nodes[r.Node].url, r, ck.etag(r), "")
		if err != nil {
			return fmt.Errorf("warm-up %s %s: %w", r.Method, r.Path, err)
		}
		if ck.w.name == "churn" {
			if err := ck.verify(i, a); err != nil {
				return fmt.Errorf("warm-up %s %s: %w", r.Method, r.Path, err)
			}
			continue
		}
		if err := ck.validate(r, a); err != nil {
			return fmt.Errorf("warm-up %s %s: %w", r.Method, r.Path, err)
		}
		want := expected{status: a.status, body: append([]byte(nil), a.body...)}
		if r.Kind == "compose" || r.Kind == "compose.like" || r.Kind == "compose.use" {
			// Planning is deterministic: the same request twice gives the
			// same plans, byte for byte.
			again, err := c.do(ctx, top.nodes[r.Node].url, r, "", "")
			if err != nil {
				return err
			}
			if again.status != want.status || !bytes.Equal(again.body, want.body) {
				return fmt.Errorf("repeated %s gave different plans", r.Path)
			}
		}
		ck.want[k] = want
	}
	return nil
}

// validate checks a warm-up answer on a static catalog against the
// catalog's annotations before it becomes the expected answer.
func (ck *checker) validate(r request, a answer) error {
	if r.Cond {
		if a.status != http.StatusNotModified {
			return fmt.Errorf("conditional request answered %d, want 304", a.status)
		}
		return nil
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", a.status, a.body)
	}
	var body struct {
		Hash     string          `json:"hash"`
		Partial  bool            `json:"partial"`
		Examples json.RawMessage `json:"examples"`
		Count    int             `json:"count"`
		Modules  []struct {
			ID   string `json:"id"`
			Hash string `json:"hash"`
		} `json:"modules"`
	}
	if err := json.Unmarshal(a.body, &body); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if body.Partial {
		return fmt.Errorf("partial answer on a healthy topology")
	}
	switch r.Kind {
	case "examples":
		want := ck.cat.hash[r.Target]
		if a.etag != `"`+want+`"` || body.Hash != want {
			return fmt.Errorf("etag %s / hash %s, store holds %s", a.etag, body.Hash, want)
		}
		var set dataexample.Set
		if err := json.Unmarshal(body.Examples, &set); err != nil {
			return fmt.Errorf("decoding examples: %w", err)
		}
		got, err := store.HashSet(set)
		if err != nil || got != want {
			return fmt.Errorf("served examples hash to %s, want %s (%v)", got, want, err)
		}
	case "module", "substitutes":
		if want := ck.cat.hash[r.Target]; body.Hash != want {
			return fmt.Errorf("hash %s, store holds %s", body.Hash, want)
		}
	case "catalog":
		if body.Count != len(ck.cat.ids) || len(body.Modules) != len(ck.cat.ids) {
			return fmt.Errorf("catalog lists %d modules, want %d", body.Count, len(ck.cat.ids))
		}
		for _, m := range body.Modules {
			if m.Hash != ck.cat.hash[m.ID] {
				return fmt.Errorf("catalog hash of %s is %s, want %s", m.ID, m.Hash, ck.cat.hash[m.ID])
			}
		}
	}
	return nil
}

// verify checks the answer to request i of the plan.
func (ck *checker) verify(i int, a answer) error {
	r := ck.plan.requests[i]
	if ck.w.name != "churn" {
		want, ok := ck.want[ck.keys[i]]
		if !ok {
			return fmt.Errorf("no expected answer learned")
		}
		if a.status != want.status || !bytes.Equal(a.body, want.body) {
			return fmt.Errorf("answer differs from the warm-up's (status %d, %d bytes; want %d, %d bytes)",
				a.status, len(a.body), want.status, len(want.body))
		}
		return nil
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", a.status, a.body)
	}
	switch r.Kind {
	case "matches":
		if !bytes.HasPrefix(a.body, []byte("{\n  \"state\": \"")) {
			return fmt.Errorf("not a matrix answer: %.80s", a.body)
		}
	case "substitutes":
		h := hashField(a.body)
		vh := ck.cat.variantHash[r.Target]
		if h != ck.cat.hash[r.Target] && h != vh[0] && h != vh[1] {
			return fmt.Errorf("substitutes ranked for hash %q, not an annotation of %s", h, r.Target)
		}
	case "generate":
		if h := hashField(a.body); h != ck.cat.hash[r.Target] || !bytes.Contains(a.body, []byte(`"cached": true`)) {
			return fmt.Errorf("refresh of %s stored %q (want the unchanged %s)", r.Target, h, ck.cat.hash[r.Target])
		}
	}
	return nil
}

// hashField extracts the first top-level "hash" value of an indented
// answer without decoding the whole body.
func hashField(body []byte) string {
	const key = `"hash": "`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// finalChecks runs the end-of-run checks that need the whole run behind
// them: the churn follower equals its leader and the state the first
// sent writes of the schedule leave, and the incrementally maintained
// /matches equals a fresh build; scatter answers equal a single-node
// oracle's on a seeded sample.
func (ck *checker) finalChecks(top *topology, sent int) error {
	switch ck.w.name {
	case "churn":
		return ck.churnFinal(top, sent)
	case "scatter":
		return ck.scatterOracle()
	}
	return nil
}

func (ck *checker) churnFinal(top *topology, sent int) error {
	leader, fo := top.nodes[0], top.follower
	seq := leader.st.Seq()
	if !fo.waitFor(seq, 30*time.Second) {
		return fmt.Errorf("follower stuck at seq %d, leader at %d", fo.st.Seq(), seq)
	}
	final := map[string]string{}
	for _, id := range ck.cat.ids {
		final[id] = ck.cat.hash[id]
	}
	for _, wr := range ck.plan.writes[:sent] {
		final[wr.Module] = ck.cat.hash[wr.Module]
		if wr.Variant >= 0 {
			final[wr.Module] = ck.cat.variantHash[wr.Module][wr.Variant]
		}
	}
	if got := fo.st.Seq(); got != seq {
		return fmt.Errorf("follower at seq %d, leader at %d", got, seq)
	}
	lids, fids := leader.st.IDs(), fo.st.IDs()
	if len(lids) != len(ck.cat.ids) || len(fids) != len(lids) {
		return fmt.Errorf("leader stores %d modules, follower %d, catalog has %d", len(lids), len(fids), len(ck.cat.ids))
	}
	for _, id := range lids {
		lh, _ := leader.st.Hash(id)
		fh, _ := fo.st.Hash(id)
		if lh != final[id] || fh != lh {
			return fmt.Errorf("%s: leader holds %s, follower %s, schedule ends on %s", id, lh, fh, final[id])
		}
	}
	// The live /matches, maintained incrementally through every write,
	// must equal a fresh build over the final store.
	fresh := &serve.Server{Registry: leader.u.Registry, Store: leader.st, Source: leader.source, Comparer: leader.cmp}
	live, fromScratch := httptest.NewRecorder(), httptest.NewRecorder()
	leader.api.ServeHTTP(live, httptest.NewRequest("GET", "/matches", nil))
	fresh.Handler().ServeHTTP(fromScratch, httptest.NewRequest("GET", "/matches", nil))
	if live.Code != http.StatusOK || !bytes.Equal(live.Body.Bytes(), fromScratch.Body.Bytes()) {
		return fmt.Errorf("incremental /matches (%d, %d bytes) differs from a fresh build (%d bytes)",
			live.Code, live.Body.Len(), fromScratch.Body.Len())
	}
	return nil
}

// oracleSample is how many distinct substitute and search requests the
// scatter check replays against the single-node oracle.
const oracleSample = 16

func (ck *checker) scatterOracle() error {
	lns, err := listen(1)
	if err != nil {
		return err
	}
	oracle, err := startNode(lns[0], nodeConfig{name: "oracle"})
	if err != nil {
		lns[0].Close()
		return err
	}
	defer oracle.close()
	c := newClient()
	defer c.close()
	taken := map[string]int{}
	seen := map[string]bool{}
	for i, r := range ck.plan.requests {
		family := r.Kind
		if family != "substitutes" {
			family = "search"
			if r.Kind != "search.keyword" && r.Kind != "search.behaves" {
				continue
			}
		}
		if seen[r.Path] || taken[family] >= oracleSample {
			continue
		}
		seen[r.Path] = true
		taken[family]++
		a, err := c.do(context.Background(), oracle.url, request{Method: r.Method, Path: r.Path}, "", "")
		if err != nil {
			return err
		}
		if err := sameAsOracle(family, ck.want[ck.keys[i]], a); err != nil {
			return fmt.Errorf("scatter %s: %w", r.Path, err)
		}
	}
	return nil
}

// sameAsOracle compares a scatter answer with the oracle's. Substitute
// rankings must be byte-identical; a search page must carry the identical
// ranking (hits and total) — its generation and cursor legitimately
// differ, because a cluster stamps pages with its own state key.
func sameAsOracle(family string, got expected, oracle answer) error {
	if got.status != oracle.status {
		return fmt.Errorf("status %d, oracle %d", got.status, oracle.status)
	}
	if family == "substitutes" {
		if !bytes.Equal(got.body, oracle.body) {
			return fmt.Errorf("differs from the single-node oracle:\n got: %.300s\nwant: %.300s", got.body, oracle.body)
		}
		return nil
	}
	type page struct {
		Hits  json.RawMessage `json:"hits"`
		Total int             `json:"total"`
	}
	var g, o page
	if err := json.Unmarshal(got.body, &g); err != nil {
		return err
	}
	if err := json.Unmarshal(oracle.body, &o); err != nil {
		return err
	}
	// A cluster answers a query without hits with "hits": null where a
	// single node answers []; both mean no hits, so the check accepts it.
	if bytes.Equal(g.Hits, []byte("null")) && bytes.Equal(o.Hits, []byte("[]")) {
		g.Hits = o.Hits
	}
	if g.Total != o.Total || !bytes.Equal(g.Hits, o.Hits) {
		return fmt.Errorf("ranking differs from the single-node oracle:\n got: %.300s\nwant: %.300s", g.Hits, o.Hits)
	}
	return nil
}
