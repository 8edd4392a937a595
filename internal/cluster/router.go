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
	"sort"
	"strings"
	"sync"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/search"
)

// Router is the scatter-gather side of the cluster: it fans a substitute
// search or a matrix build out to every shard, bounds each call with a
// per-shard timeout, degrades to a partial result when shards fail (a
// down shard withholds its slice, it does not take the answer down with
// it), and merges the slices deterministically — the healthy-cluster
// merge is byte-identical to a single node holding the whole catalog.
type Router struct {
	Config Config
	Ring   *Ring
	// Client issues the intra-cluster calls; nil selects a default.
	Client *http.Client
	// Timeout bounds each per-shard call (default 10s).
	Timeout time.Duration
	// Checker, when set, lets the router skip breaker-open shards without
	// paying a timeout for each.
	Checker *Checker
	Metrics *Metrics
	// APIPrefix is where the serving layer mounts its API on each shard
	// (default "/api").
	APIPrefix string

	mu         sync.Mutex
	matrixKey  string
	matrixMemo *match.MatchMatrix
}

// DefaultShardTimeout bounds one per-shard scatter call.
const DefaultShardTimeout = 10 * time.Second

// SubstitutesResult is the merged cluster-wide ranking. With Partial
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

// MatrixResult is the merged cluster-wide matrix. With Partial set, the
// pairs owned by FailedShards (and, when a shard failed before
// contributing its sets, its modules) are absent.
type MatrixResult struct {
	Matrix       *match.MatchMatrix
	Partial      bool
	FailedShards []string
	StateKey     string
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

func (rt *Router) prefix() string {
	if rt.APIPrefix != "" {
		return rt.APIPrefix
	}
	return "/api"
}

func (rt *Router) client() *http.Client {
	if rt.Client != nil {
		return rt.Client
	}
	return http.DefaultClient
}

func (rt *Router) timeout() time.Duration {
	if rt.Timeout > 0 {
		return rt.Timeout
	}
	return DefaultShardTimeout
}

// call performs one bounded JSON round trip against a shard's API.
func (rt *Router) call(ctx context.Context, method, base, path string, in, out any) error {
	ctx, cancel := context.WithTimeout(ctx, rt.timeout())
	defer cancel()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+rt.prefix()+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &StatusError{Endpoint: base + path, Code: resp.StatusCode, Body: strings.TrimSpace(string(msg))}
	}
	return json.NewDecoder(resp.Body).Decode(out)
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
// breaker-open shards.
func fanOut[T any](rt *Router, ctx context.Context, shards []ShardConfig, endpoint string, fn func(ctx context.Context, sh ShardConfig) (T, error)) []shardResult[T] {
	if rt.Metrics != nil {
		rt.Metrics.ScatterRequests.With(endpoint).Inc()
	}
	results := make([]shardResult[T], len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		results[i].shard = sh
		if !rt.Checker.Healthy(sh.Name) {
			results[i].err = fmt.Errorf("shard %s is unhealthy (breaker open)", sh.Name)
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
	owner := rt.Owner(moduleID)
	if owner.URL == "" {
		return StoredSet{}, fmt.Errorf("cluster: no shard owns %q", moduleID)
	}
	var resp struct {
		Hash     string          `json:"hash"`
		Version  uint64          `json:"version"`
		Examples dataexample.Set `json:"examples"`
	}
	path := "/modules/" + url.PathEscape(moduleID) + "/examples"
	if err := rt.call(ctx, http.MethodGet, strings.TrimSuffix(owner.URL, "/"), path, nil, &resp); err != nil {
		return StoredSet{}, fmt.Errorf("cluster: fetching examples of %s from %s: %w", moduleID, owner.Name, err)
	}
	return StoredSet{Hash: resp.Hash, Version: resp.Version, Examples: resp.Examples}, nil
}

// Substitutes scatter-gathers a substitute search: the candidate list is
// partitioned by ring owner, every shard ranks its own slice against the
// target's examples (shipped in the request body), and the slices merge
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

// verdictRank orders verdict strings by strength, mirroring the
// match.Verdict ordinals the single-node ranking sorts by.
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

// Matrix scatter-gathers the all-pairs matrix: gather every shard's
// owned annotation sets, ship the combined universe back out, and let
// each shard sweep only the pairs it owns (match.MatchMatrixSlice); the
// merged slices are byte-identical to a single-node build over the same
// sets. The merge is memoized on the shards' replication sequences — an
// unchanged cluster answers from the memo without re-gathering a single
// set.
func (rt *Router) Matrix(ctx context.Context) (*MatrixResult, error) {
	// Cheap round first: each shard's identity and sequence form the
	// cluster state key.
	infos := fanOut(rt, ctx, rt.Config.Shards, "info", func(ctx context.Context, sh ShardConfig) (Info, error) {
		var info Info
		err := rt.call(ctx, http.MethodGet, strings.TrimSuffix(sh.URL, "/"), "/cluster/info", nil, &info)
		return info, err
	})
	var failed []string
	var healthy []ShardConfig
	var keyParts []string
	for _, res := range infos {
		if res.err != nil {
			failed = append(failed, res.shard.Name)
			continue
		}
		healthy = append(healthy, res.shard)
		keyParts = append(keyParts, fmt.Sprintf("%s:%d", res.shard.Name, res.reply.Seq))
	}
	sort.Strings(keyParts)
	key := strings.Join(keyParts, ",")

	if len(failed) == 0 {
		rt.mu.Lock()
		if rt.matrixMemo != nil && rt.matrixKey == key {
			memo := rt.matrixMemo
			rt.mu.Unlock()
			return &MatrixResult{Matrix: memo, StateKey: key}, nil
		}
		rt.mu.Unlock()
	}
	if len(healthy) == 0 {
		return nil, fmt.Errorf("cluster: no shard reachable for matrix build")
	}

	// Gather every healthy shard's owned sets into one universe.
	setsResults := fanOut(rt, ctx, healthy, "sets", func(ctx context.Context, sh ShardConfig) (SetsPayload, error) {
		var payload SetsPayload
		err := rt.call(ctx, http.MethodGet, strings.TrimSuffix(sh.URL, "/"), "/cluster/sets", nil, &payload)
		return payload, err
	})
	universe := make(map[string]StoredSet)
	var sweepers []ShardConfig
	for _, res := range setsResults {
		if res.err != nil {
			failed = append(failed, res.shard.Name)
			continue
		}
		sweepers = append(sweepers, res.shard)
		for id, set := range res.reply.Sets {
			universe[id] = set
		}
	}
	if len(sweepers) == 0 {
		return nil, fmt.Errorf("cluster: no shard contributed sets for matrix build")
	}

	// Scatter the sweep: each shard computes the pairs it owns.
	req := MatrixRequest{Sets: universe}
	sliceResults := fanOut(rt, ctx, sweepers, "matrix", func(ctx context.Context, sh ShardConfig) (MatrixReply, error) {
		var reply MatrixReply
		err := rt.call(ctx, http.MethodPost, strings.TrimSuffix(sh.URL, "/"), "/cluster/matrix", req, &reply)
		return reply, err
	})
	var slices []*match.MatchMatrix
	for _, res := range sliceResults {
		if res.err != nil {
			failed = append(failed, res.shard.Name)
			continue
		}
		slices = append(slices, res.reply.Matrix)
	}
	if len(slices) == 0 {
		return nil, fmt.Errorf("cluster: every shard failed the matrix sweep")
	}
	merged := match.MergeMatrixSlices(slices)
	sort.Strings(failed)
	out := &MatrixResult{Matrix: merged, Partial: len(failed) > 0, FailedShards: failed, StateKey: key}
	if !out.Partial {
		rt.mu.Lock()
		rt.matrixKey, rt.matrixMemo = key, merged
		rt.mu.Unlock()
	}
	return out, nil
}
