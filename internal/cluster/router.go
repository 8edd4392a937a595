package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/search"
)

// Router is the cluster's one link to every other shard. It bounds
// each call with a per-shard timeout and degrades to a partial result
// when shards fail: a down shard withholds its part, it does not take
// the answer down with it. For /substitutes it fetches a target's
// examples from their owner (FetchExamplesIfChanged), and the serving
// layer ranks them locally. For /matches it only gathers: the state round
// (Matrix) and the other shards' stored sets (Sets), from which the
// serving layer builds the matrix locally. For /search it only holds the
// other shards' summaries (SearchView), and the serving layer answers
// from its own index. Substitutes and Search, scatters that merge
// per-shard slices, stay for e2ebench's traced replay only. Watch keeps
// one long-poll open per other shard: it keeps that shard's summary
// current, so a search reads it without a call, and its outcome is the
// shard's health, so a fan-out fails a down shard without calling it
// (see health.go).
type Router struct {
	Config Config
	Ring   *Ring
	// Client issues the intra-cluster calls; nil selects a default.
	Client  *http.Client
	Metrics *Metrics

	mu    sync.Mutex
	peers map[string]*peer // shard name -> what this node knows of it
	view  *SearchView      // merged from the summaries it names
}

// shardTimeout bounds one per-shard scatter call.
const shardTimeout = 10 * time.Second

// APIPrefix is where the serving layer mounts its API on every shard.
const APIPrefix = "/api"

// SubstitutesResult is Router.Substitutes' merged ranking. With Partial
// set, FailedShards lists the shards whose candidate slices are missing
// from the ranking.
type SubstitutesResult struct {
	Target       string
	Hash         string
	Substitutes  []SubstituteEntry
	Skipped      []SkippedEntry
	Partial      bool
	FailedShards []string
}

// MatrixState is the state round of a cluster /matches: the key that
// identifies the cluster's stored annotations, the shards that answered
// and the shards that did not.
type MatrixState struct {
	StateKey     string
	Shards       []ShardConfig
	FailedShards []string
}

// Owner returns the shard a module is placed on.
func (rt *Router) Owner(moduleID string) ShardConfig {
	name := rt.Ring.Owner(moduleID)
	for _, sh := range rt.Config.Shards {
		if sh.Name == name {
			return sh
		}
	}
	return ShardConfig{}
}

func (rt *Router) client() *http.Client {
	if rt.Client != nil {
		return rt.Client
	}
	return http.DefaultClient
}

// call performs one bounded JSON round trip against a shard's API.
func (rt *Router) call(ctx context.Context, method, base, path string, in, out any) error {
	_, err := rt.callIf(ctx, method, base, path, "", in, out)
	return err
}

// callIf is call made conditional on etag when it is not empty: the
// request carries If-None-Match, and a 304 reports modified false and
// leaves out untouched.
func (rt *Router) callIf(ctx context.Context, method, base, path, etag string, in, out any) (modified bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return false, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+APIPrefix+path, body)
	if err != nil {
		return false, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if etag != "" && resp.StatusCode == http.StatusNotModified {
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, &StatusError{Endpoint: base + path, Code: resp.StatusCode, Body: strings.TrimSpace(string(msg))}
	}
	return true, json.NewDecoder(resp.Body).Decode(out)
}

// StatusError is a shard's non-200 answer to an intra-cluster call.
// Classify it with errors.As on Code, never by matching the message: the
// message carries the shard's URL and the module ID, either of which may
// contain any digits.
type StatusError struct {
	Endpoint string // shard base URL plus path
	Code     int
	Body     string // start of the response body, trimmed
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s answered %d %s: %s", e.Endpoint, e.Code, http.StatusText(e.Code), e.Body)
}

// IsNotFound reports whether err carries a shard's 404 answer.
func IsNotFound(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// shardResult pairs one shard with its fan-out outcome.
type shardResult[T any] struct {
	shard ShardConfig
	reply T
	err   error
}

// fanOut runs fn against every listed shard concurrently, pre-failing
// the shards the watch found down with the poll error that did. An empty
// shard list contacts nothing and counts no scatter.
func fanOut[T any](rt *Router, ctx context.Context, shards []ShardConfig, endpoint string, fn func(ctx context.Context, sh ShardConfig) (T, error)) []shardResult[T] {
	if len(shards) == 0 {
		return nil
	}
	if rt.Metrics != nil {
		rt.Metrics.ScatterRequests.With(endpoint).Inc()
	}
	results := make([]shardResult[T], len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		results[i].shard = sh
		if err := rt.down(sh.Name); err != nil {
			results[i].err = err
			continue
		}
		wg.Add(1)
		go func(i int, sh ShardConfig) {
			defer wg.Done()
			results[i].reply, results[i].err = fn(ctx, sh)
		}(i, sh)
	}
	wg.Wait()
	if rt.Metrics != nil {
		for _, res := range results {
			if res.err != nil {
				rt.Metrics.ShardFailures.With(res.shard.Name).Inc()
			}
		}
	}
	return results
}

// FetchExamples retrieves a module's stored annotation from its owner
// shard (the public examples endpoint, so the owner's ETag cache and
// access instrumentation see the read).
func (rt *Router) FetchExamples(ctx context.Context, moduleID string) (StoredSet, error) {
	ss, _, err := rt.FetchExamplesIfChanged(ctx, moduleID, "")
	return ss, err
}

// FetchExamplesIfChanged is FetchExamples revalidating the content hash
// the caller holds: the owner answers 304 while its stored set still has
// that hash, and then changed is false and no set moves or is decoded.
// An empty hash fetches unconditionally.
func (rt *Router) FetchExamplesIfChanged(ctx context.Context, moduleID, hash string) (ss StoredSet, changed bool, err error) {
	owner := rt.Owner(moduleID)
	if owner.URL == "" {
		return StoredSet{}, false, fmt.Errorf("cluster: no shard owns %q", moduleID)
	}
	var resp struct {
		Hash     string          `json:"hash"`
		Version  uint64          `json:"version"`
		Examples dataexample.Set `json:"examples"`
	}
	etag := ""
	if hash != "" {
		etag = `"` + hash + `"`
	}
	path := "/modules/" + url.PathEscape(moduleID) + "/examples"
	changed, err = rt.callIf(ctx, http.MethodGet, strings.TrimSuffix(owner.URL, "/"), path, etag, nil, &resp)
	if err != nil {
		return StoredSet{}, false, fmt.Errorf("cluster: fetching examples of %s from %s: %w", moduleID, owner.Name, err)
	}
	return StoredSet{Hash: resp.Hash, Version: resp.Version, Examples: resp.Examples}, changed, nil
}

// Substitutes scatter-gathers a substitute search. Only e2ebench's
// traced replay calls it: the public /substitutes ranks on the receiving
// shard (serve.handleSubstitutes), which holds every candidate's
// executor and signature. The candidate list is partitioned by ring
// owner, every shard owning a candidate ranks its
// own slice against the target's examples (shipped in the request body;
// a shard owning none is not contacted, so an empty list contacts no
// shard and yields an empty, complete result), and the slices merge
// under the exact comparator the single-node search sorts with — verdict
// strength, then score, then module ID — so a healthy cluster's ranking
// is byte-identical to the oracle's. Skipped candidates merge by module
// ID, matching the oracle's sorted catalog order.
func (rt *Router) Substitutes(ctx context.Context, target, hash string, examples dataexample.Set, candidates []string) (*SubstitutesResult, error) {
	byShard := make(map[string][]string)
	for _, id := range candidates {
		if id == target {
			continue
		}
		name := rt.Ring.Owner(id)
		byShard[name] = append(byShard[name], id)
	}
	var shards []ShardConfig
	for _, sh := range rt.Config.Shards {
		if len(byShard[sh.Name]) > 0 {
			shards = append(shards, sh)
		}
	}
	req := SubstitutesRequest{Target: target, Hash: hash, Examples: examples}
	results := fanOut(rt, ctx, shards, "substitutes", func(ctx context.Context, sh ShardConfig) (SubstitutesReply, error) {
		var reply SubstitutesReply
		shardReq := req
		shardReq.Candidates = byShard[sh.Name]
		err := rt.call(ctx, http.MethodPost, strings.TrimSuffix(sh.URL, "/"), "/cluster/substitutes", shardReq, &reply)
		return reply, err
	})

	out := &SubstitutesResult{Target: target, Hash: hash}
	for _, res := range results {
		if res.err != nil {
			out.Partial = true
			out.FailedShards = append(out.FailedShards, res.shard.Name)
			continue
		}
		out.Substitutes = append(out.Substitutes, res.reply.Substitutes...)
		out.Skipped = append(out.Skipped, res.reply.Skipped...)
	}
	sort.Strings(out.FailedShards)
	sort.Slice(out.Substitutes, func(i, j int) bool {
		a, b := out.Substitutes[i], out.Substitutes[j]
		if ra, rb := verdictRank(a.Verdict), verdictRank(b.Verdict); ra != rb {
			return ra > rb
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.ID < b.ID
	})
	sort.Slice(out.Skipped, func(i, j int) bool { return out.Skipped[i].ID < out.Skipped[j].ID })
	return out, nil
}

// SearchResult is the merged cluster-wide ranking for one query. The
// StateKey concatenates every shard's index generation — the scatter
// path derives its pagination generation and ETag from it, so a page
// walk restarts when any shard's index moves, exactly as a single
// node's walk restarts on its own generation.
type SearchResult struct {
	Hits         []search.Hit
	Partial      bool
	FailedShards []string
	StateKey     string
}

// Search scatter-gathers a repository search. Every shard indexes the
// full registry (keyword and concept postings are replicated catalog
// metadata, so per-shard IDF equals single-node IDF) but stores example
// sets only for its owned modules — so behaves: anchors are first
// resolved to fingerprints on their owner shards, then the query fans
// out with the anchors attached and each shard returns hits for the
// modules it owns. The merged ranking is identical to a single node
// holding everything; failed shards degrade it to a partial one.
func (rt *Router) Search(ctx context.Context, rawQuery string, anchors []string) (*SearchResult, error) {
	resolved := map[string]string{}
	// Hits starts empty, not nil, so a query nothing matches encodes as
	// "hits": [] exactly like a single node's answer.
	out := &SearchResult{Hits: []search.Hit{}}
	if len(anchors) > 0 {
		byShard := map[string][]string{}
		for _, id := range anchors {
			byShard[rt.Ring.Owner(id)] = append(byShard[rt.Ring.Owner(id)], id)
		}
		var owners []ShardConfig
		for _, sh := range rt.Config.Shards {
			if len(byShard[sh.Name]) > 0 {
				owners = append(owners, sh)
			}
		}
		results := fanOut(rt, ctx, owners, "search-resolve", func(ctx context.Context, sh ShardConfig) (SearchReply, error) {
			var reply SearchReply
			err := rt.call(ctx, http.MethodPost, strings.TrimSuffix(sh.URL, "/"), "/cluster/search",
				SearchRequest{Resolve: byShard[sh.Name]}, &reply)
			return reply, err
		})
		for _, res := range results {
			if res.err != nil {
				// An unresolved anchor silently weakens the ranking; flag it.
				out.Partial = true
				out.FailedShards = append(out.FailedShards, res.shard.Name)
				continue
			}
			for id, fp := range res.reply.Fingerprints {
				resolved[id] = fp
			}
		}
	}

	results := fanOut(rt, ctx, rt.Config.Shards, "search", func(ctx context.Context, sh ShardConfig) (SearchReply, error) {
		var reply SearchReply
		err := rt.call(ctx, http.MethodPost, strings.TrimSuffix(sh.URL, "/"), "/cluster/search",
			SearchRequest{Query: rawQuery, Anchors: resolved}, &reply)
		return reply, err
	})
	var keyParts []string
	for _, res := range results {
		if res.err != nil {
			out.Partial = true
			out.FailedShards = append(out.FailedShards, res.shard.Name)
			continue
		}
		out.Hits = append(out.Hits, res.reply.Hits...)
		keyParts = append(keyParts, fmt.Sprintf("%s:%d", res.shard.Name, res.reply.Generation))
	}
	if len(keyParts) == 0 {
		return nil, fmt.Errorf("cluster: no shard reachable for search")
	}
	sort.Strings(keyParts)
	out.StateKey = strings.Join(keyParts, ",")
	seen := map[string]bool{}
	for _, name := range out.FailedShards {
		seen[name] = true
	}
	out.FailedShards = out.FailedShards[:0]
	for name := range seen {
		out.FailedShards = append(out.FailedShards, name)
	}
	sort.Strings(out.FailedShards)
	search.SortHits(out.Hits)
	return out, nil
}

// SearchView is what a shard answers /search with from its own index:
// the other shards' summaries merged into one search.Overlay. Every
// field derives from exactly the summaries the view was built from, so
// an answer's hits and its state key agree.
type SearchView struct {
	Overlay *search.Overlay
	// FailedShards names, sorted, the shards whose modules the overlay
	// lacks: their hits are missing and the answer is partial.
	FailedShards []string
	keyParts     []string   // "name:nonce.generation" of every answering shard
	summaries    []*Summary // per other shard in membership order, nil if failed
}

// StateKey is the cluster-wide state of an answer this node computed
// with its own index at tag (search.Tag of its nonce and generation): every
// answering shard's "name:nonce.generation", sorted and comma-joined, so
// a page walk restarts when any of those indexes moves or is rebuilt.
func (v *SearchView) StateKey(self, tag string) string {
	parts := append(slices.Clip(v.keyParts), self+":"+tag)
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// SearchView returns every shard but self's search summary merged. A
// shard whose watch holds its summary current (see Watch) costs no call,
// a shard the watch found down is failed without one, and any other (no
// watch runs, or it has had no answer yet) is revalidated by one
// conditional GET /cluster/summary, which a shard whose index has not
// moved answers 304. The merged view is kept while the summaries it names
// are current, so a warm search calls, moves and merges nothing. A shard
// that fails contributes no summary and is listed in FailedShards.
func (rt *Router) SearchView(ctx context.Context, self string) *SearchView {
	others := make([]ShardConfig, 0, len(rt.Config.Shards))
	for _, sh := range rt.Config.Shards {
		if sh.Name != self {
			others = append(others, sh)
		}
	}
	summaries := make([]*Summary, len(others))
	var stale []int // indexes into others of the shards to call
	rt.mu.Lock()
	for i, sh := range others {
		if p := rt.peer(sh.Name); p.summary != nil && p.watch == WatchWatched {
			summaries[i] = p.summary
		} else {
			stale = append(stale, i)
		}
	}
	rt.mu.Unlock()
	if len(stale) > 0 {
		calls := make([]ShardConfig, len(stale))
		for k, i := range stale {
			calls[k] = others[i]
		}
		results := fanOut(rt, ctx, calls, "summary", func(ctx context.Context, sh ShardConfig) (*Summary, error) {
			rt.mu.Lock()
			held := rt.peer(sh.Name).summary
			rt.mu.Unlock()
			return rt.revalidate(ctx, sh, held, 0)
		})
		for k, res := range results {
			summaries[stale[k]] = res.reply
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if v := rt.view; v != nil && slices.Equal(v.summaries, summaries) {
		return v
	}
	v := &SearchView{summaries: summaries}
	docs := map[string]search.Remote{}
	for i, sum := range summaries {
		if sum == nil {
			v.FailedShards = append(v.FailedShards, others[i].Name)
			continue
		}
		v.keyParts = append(v.keyParts, others[i].Name+":"+sum.Tag())
		for id, r := range sum.Docs {
			docs[id] = r
		}
	}
	sort.Strings(v.FailedShards)
	v.Overlay = search.NewOverlay(func(id string) bool { return rt.Ring.Owner(id) == self }, docs)
	rt.view = v
	return v
}

// revalidate brings the summary the caller holds of one shard up to date
// by a GET /cluster/summary, conditional on held unless it is nil, and
// returns the current summary (nil with the error when the call fails); a
// changed one is kept for every later search. With wait > 0 the call is a
// long-poll: the shard parks it until its index moves (200), the wait
// ends (304) or it drains (503).
func (rt *Router) revalidate(ctx context.Context, sh ShardConfig, held *Summary, wait time.Duration) (*Summary, error) {
	etag := ""
	if held != nil {
		etag = `"` + held.Tag() + `"`
	}
	path, via := "/cluster/summary", "call"
	if wait > 0 {
		path, via = path+"?wait="+wait.String(), "watch"
	}
	if rt.Metrics != nil {
		rt.Metrics.SummaryRevalidations.With(sh.Name, via).Inc()
	}
	fresh := new(Summary)
	changed, err := rt.callIf(ctx, http.MethodGet, strings.TrimSuffix(sh.URL, "/"), path, etag, nil, fresh)
	if err != nil {
		return nil, err
	}
	if !changed {
		return held, nil
	}
	rt.mu.Lock()
	// A call answered after a later one must not roll the summary back.
	if p := rt.peer(sh.Name); p.summary == nil || p.summary.Nonce != fresh.Nonce || p.summary.Generation < fresh.Generation {
		p.summary = fresh
	}
	rt.mu.Unlock()
	return fresh, nil
}

// verdictRank orders verdict strings by strength for Substitutes' merge,
// mirroring the match.Verdict ordinals the single-node ranking sorts by.
func verdictRank(v string) int {
	switch v {
	case match.Equivalent.String():
		return 3
	case match.Overlapping.String():
		return 2
	case match.Disjoint.String():
		return 1
	default:
		return 0
	}
}

// Matrix runs the state round of a cluster /matches: one /cluster/info
// call per shard, except the shards the caller answers for in local (its
// own, read from its store without a loopback call). The state key folds
// every answering shard's replication sequence, so it moves exactly when
// some shard's stored annotations do. The caller gathers sets (see Sets)
// only when the key misses its cache, so revalidating an unchanged
// cluster costs this one round and builds nothing.
func (rt *Router) Matrix(ctx context.Context, local ...Info) (*MatrixState, error) {
	seqs := map[string]uint64{}
	var remote []ShardConfig
	for _, sh := range rt.Config.Shards {
		if i := slices.IndexFunc(local, func(in Info) bool { return in.Shard == sh.Name }); i >= 0 {
			seqs[sh.Name] = local[i].Seq
		} else {
			remote = append(remote, sh)
		}
	}
	infos := fanOut(rt, ctx, remote, "info", func(ctx context.Context, sh ShardConfig) (Info, error) {
		var info Info
		err := rt.call(ctx, http.MethodGet, strings.TrimSuffix(sh.URL, "/"), "/cluster/info", nil, &info)
		return info, err
	})
	out := &MatrixState{}
	for _, res := range infos {
		if res.err != nil {
			out.FailedShards = append(out.FailedShards, res.shard.Name)
			continue
		}
		seqs[res.shard.Name] = res.reply.Seq
	}
	var keyParts []string
	for _, sh := range rt.Config.Shards {
		if seq, ok := seqs[sh.Name]; ok {
			out.Shards = append(out.Shards, sh)
			keyParts = append(keyParts, fmt.Sprintf("%s:%d", sh.Name, seq))
		}
	}
	if len(out.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shard reachable for matrix build")
	}
	sort.Strings(keyParts)
	out.StateKey = strings.Join(keyParts, ",")
	sort.Strings(out.FailedShards)
	return out, nil
}

// Sets gathers every annotation the listed shards store into one map
// keyed by module ID — the whole catalog's sets when every shard
// answers — and names, sorted, the shards that failed to send theirs. A
// shard the caller answers for in local sends no call.
func (rt *Router) Sets(ctx context.Context, shards []ShardConfig, local ...SetsPayload) (map[string]StoredSet, []string, error) {
	sets := make(map[string]StoredSet)
	var remote []ShardConfig
	for _, sh := range shards {
		i := slices.IndexFunc(local, func(p SetsPayload) bool { return p.Shard == sh.Name })
		if i < 0 {
			remote = append(remote, sh)
			continue
		}
		for id, set := range local[i].Sets {
			sets[id] = set
		}
	}
	results := fanOut(rt, ctx, remote, "sets", func(ctx context.Context, sh ShardConfig) (SetsPayload, error) {
		var payload SetsPayload
		err := rt.call(ctx, http.MethodGet, strings.TrimSuffix(sh.URL, "/"), "/cluster/sets", nil, &payload)
		return payload, err
	})
	var failed []string
	for _, res := range results {
		if res.err != nil {
			failed = append(failed, res.shard.Name)
			continue
		}
		for id, set := range res.reply.Sets {
			sets[id] = set
		}
	}
	if len(failed) == len(shards) {
		return nil, nil, fmt.Errorf("cluster: no shard contributed sets for matrix build")
	}
	sort.Strings(failed)
	return sets, failed, nil
}
