// Package serve is the annotation serving layer: it exposes the
// persistent example store over HTTP so generated data examples are
// browsable, cacheable and usable for substitute search without a fresh
// generation run. The endpoints (mounted under a prefix of the caller's
// choosing, /api in dexa-serve):
//
//	GET  /catalog                      — every registered module with annotation status
//	GET  /modules/{id}                 — one module's signature, health and annotation metadata
//	GET  /modules/{id}/examples        — the stored example set; ETag = content hash,
//	                                     If-None-Match answers 304 without touching the set
//	POST /modules/{id}/generate        — on-demand annotation through the store-backed
//	                                     source: concurrent identical requests collapse to
//	                                     one generator run (singleflight), the result is
//	                                     persisted before the first response leaves
//	POST /modules/{id}/generate?refresh=1 — force regeneration (content-hash no-op if stable)
//	GET  /modules/{id}/substitutes     — rank live substitutes for a module from its
//	                                     stored examples (the workflow-repair query);
//	                                     warmed per target and ETag'd on the catalog state
//	GET  /matches                      — the catalog-wide all-pairs verdict matrix over
//	                                     stored annotations; ETag = catalog state key,
//	                                     unchanged catalogs serve the cached build
//	GET  /search                       — ranked behavior-aware repository search
//	                                     (keywords, concept: expansion, behaves:
//	                                     classes); paginated, ETag'd on the index
//	                                     generation (see search.go)
//	GET  /compose                      — constraint-guided workflow synthesis from an
//	                                     input concept to an output concept, slots
//	                                     disambiguated by data examples (see compose.go)
//	GET  /stats                        — store and generation counters
//
// A server wired with a lifecycle.Manager additionally mounts the
// live-catalog endpoints — GET /lifecycle, /events, /watch (long-poll
// change feed) and GET/POST /repairs — documented in lifecycle.go.
//
// All responses are JSON. Errors use {"error": "..."} with a matching
// status code.
package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/lifecycle"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/search"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

// Server wires the registry, the example store, the store-backed
// generation source and the comparer into an http.Handler. Registry and
// Store are required; Source and Comparer are optional — without a
// Source /generate answers 501, without a Comparer /substitutes does.
//
// The telemetry fields are optional too: with a Telemetry registry every
// route records request counts, latency histograms, in-flight and
// response-size metrics (and GET /stats embeds a full registry
// snapshot); with a Tracer every request becomes a root trace span; with
// a Logger every request emits one structured access-log line. Request
// IDs (X-Request-ID) are accepted, generated and echoed regardless.
type Server struct {
	Registry *registry.Registry
	Store    *store.Store
	Source   *store.Source
	Comparer *match.Comparer

	// Lifecycle, when set, mounts the live-catalog endpoints (/lifecycle,
	// /events, /watch, /repairs) over the manager's event log and repair
	// queue. See lifecycle.go.
	Lifecycle *lifecycle.Manager

	// Cluster, when set, makes this server one node of a sharded serving
	// tier: the intra-cluster endpoints (/cluster/*) are mounted, /matches
	// and /substitutes scatter-gather across the ring, and reads of
	// modules another shard owns redirect to their owner. See cluster.go.
	Cluster *cluster.Node

	// SearchIndex, when set, mounts GET /search (behavior-aware catalog
	// search, see search.go) and adds the index block to /stats. The
	// caller owns keeping it synced to the registry and store — typically
	// via a search.Syncer's availability hook and replication watcher.
	SearchIndex *search.Index

	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	Logger    *slog.Logger

	// matrix, subs and views memoize the expensive matching and
	// planning work, and stateKey the matrix state key; all are keyed on
	// catalog state so they invalidate themselves when stored
	// annotations, module availability or the signature index change.
	matrix   matrixCache
	subs     subsCache
	views    viewCache
	stateKey stateKeyMemo

	// drain is closed by BeginDrain: long-poll handlers (/watch here, the
	// cluster WAL feed in its own package) answer parked and new waiters
	// immediately instead of holding the shutdown window open.
	drainOnce sync.Once
	drainLazy sync.Once
	drain     chan struct{}
}

// drainCh lazily allocates the drain channel.
func (s *Server) drainCh() chan struct{} {
	s.drainLazy.Do(func() { s.drain = make(chan struct{}) })
	return s.drain
}

// BeginDrain makes every long-poll waiter answer immediately, parked or
// future. Wire it to http.Server.RegisterOnShutdown so a SIGTERM's
// graceful drain is bounded by in-flight work, not poll timeouts.
func (s *Server) BeginDrain() {
	ch := s.drainCh()
	s.drainOnce.Do(func() { close(ch) })
}

// route is one API endpoint: the mux pattern, its method (for the 405
// Allow header on the bare path) and the handler.
type route struct {
	method  string
	pattern string
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	rts := []route{
		{http.MethodGet, "/catalog", s.handleCatalog},
		{http.MethodGet, "/modules/{id}", s.handleModule},
		{http.MethodGet, "/modules/{id}/examples", s.handleExamples},
		{http.MethodPost, "/modules/{id}/generate", s.handleGenerate},
		{http.MethodGet, "/modules/{id}/substitutes", s.handleSubstitutes},
		{http.MethodGet, "/matches", s.handleMatches},
		{http.MethodGet, "/search", s.handleSearch},
		{http.MethodGet, "/compose", s.handleCompose},
		{http.MethodGet, "/stats", s.handleStats},
	}
	if s.Lifecycle != nil {
		rts = append(rts, s.lifecycleRoutes()...)
	}
	if s.Cluster != nil {
		rts = append(rts, s.clusterRoutes()...)
	}
	return rts
}

// Handler returns the API handler. Mount it under a prefix with
// http.StripPrefix.
//
// Every route is labelled with its pattern (never the raw URL, which
// would explode metric cardinality), wrong-method requests answer a JSON
// 405 carrying an Allow header, and unknown paths answer a JSON 404.
func (s *Server) Handler() http.Handler {
	ins := telemetry.NewHTTPInstrument(telemetry.HTTPOptions{
		Registry: s.Telemetry,
		Tracer:   s.Tracer,
		Logger:   s.Logger,
	})
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.method+" "+rt.pattern, ins.Route(rt.pattern, rt.handler))
		// The bare pattern catches every other method: ServeMux precedence
		// prefers the method-specific registration, so this only fires on a
		// method mismatch — answer 405 with the Allow header and a JSON
		// body instead of the mux's plain-text default.
		allow := rt.method
		mux.Handle(rt.pattern, ins.Route(rt.pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed (allowed: %s)", r.Method, allow)
		})))
	}
	mux.Handle("/", ins.Route("(unmatched)", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// lookup resolves the path's module ID against the registry.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*registry.Entry, bool) {
	id := r.PathValue("id")
	e, ok := s.Registry.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown module %q", id)
		return nil, false
	}
	return e, true
}

// catalogEntry is one row of the catalog listing.
type catalogEntry struct {
	ID        string `json:"id"`
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Form      string `json:"form"`
	Provider  string `json:"provider,omitempty"`
	Available bool   `json:"available"`
	// Examples and Hash describe the *stored* annotation; a module that
	// was never annotated (or whose annotation was not persisted) shows
	// zero examples and no hash.
	Examples int    `json:"examples"`
	Hash     string `json:"hash,omitempty"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	ids := s.Registry.IDs()
	out := make([]catalogEntry, 0, len(ids))
	for _, id := range ids {
		e, ok := s.Registry.Get(id)
		if !ok {
			continue
		}
		ce := catalogEntry{
			ID:        e.Module.ID,
			Name:      e.Module.Name,
			Kind:      e.Module.Kind.String(),
			Form:      e.Module.Form.String(),
			Provider:  e.Module.Provider,
			Available: e.Available,
		}
		if set, hash, ok := s.Store.Get(id); ok {
			ce.Examples = len(set)
			ce.Hash = hash
		}
		out = append(out, ce)
	}
	writeJSON(w, http.StatusOK, map[string]any{"modules": out, "count": len(out)})
}

type paramInfo struct {
	Name     string `json:"name"`
	Struct   string `json:"struct"`
	Semantic string `json:"semantic,omitempty"`
	Optional bool   `json:"optional,omitempty"`
}

type moduleInfo struct {
	ID          string      `json:"id"`
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Kind        string      `json:"kind"`
	Form        string      `json:"form"`
	Provider    string      `json:"provider,omitempty"`
	Inputs      []paramInfo `json:"inputs"`
	Outputs     []paramInfo `json:"outputs"`
	Available   bool        `json:"available"`
	Examples    int         `json:"examples"`
	Hash        string      `json:"hash,omitempty"`
	Version     uint64      `json:"version,omitempty"`
	Health      *healthInfo `json:"health,omitempty"`
}

type healthInfo struct {
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	TotalFailures       int    `json:"totalFailures"`
	TotalSuccesses      int    `json:"totalSuccesses"`
	LastError           string `json:"lastError,omitempty"`
	AutoRetired         bool   `json:"autoRetired,omitempty"`
}

func params(ps []module.Parameter) []paramInfo {
	out := make([]paramInfo, len(ps))
	for i, p := range ps {
		out[i] = paramInfo{Name: p.Name, Struct: p.Struct.String(), Semantic: p.Semantic, Optional: p.Optional}
	}
	return out
}

func (s *Server) handleModule(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	m := e.Module
	info := moduleInfo{
		ID: m.ID, Name: m.Name, Description: m.Description,
		Kind: m.Kind.String(), Form: m.Form.String(), Provider: m.Provider,
		Inputs: params(m.Inputs), Outputs: params(m.Outputs),
		Available: e.Available,
	}
	if set, hash, ok := s.Store.Get(m.ID); ok {
		info.Examples = len(set)
		info.Hash = hash
		if v, ok := s.Store.Version(m.ID); ok {
			info.Version = v
		}
	}
	if h, ok := s.Registry.HealthOf(m.ID); ok && h != (registry.Health{}) {
		info.Health = &healthInfo{
			ConsecutiveFailures: h.ConsecutiveFailures,
			TotalFailures:       h.TotalFailures,
			TotalSuccesses:      h.TotalSuccesses,
			LastError:           h.LastError,
			AutoRetired:         h.AutoRetired,
		}
	}
	writeJSON(w, http.StatusOK, info)
}

type examplesResponse struct {
	Module   string          `json:"module"`
	Hash     string          `json:"hash"`
	Version  uint64          `json:"version"`
	Count    int             `json:"count"`
	Examples dataexample.Set `json:"examples"`
}

// etagMatches implements the If-None-Match comparison: a literal "*"
// matches anything, otherwise any listed entity tag must equal ours
// (weak validators compare equal under the weak comparison HTTP caching
// uses).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// notModified sets the validator headers of a conditional read — the
// ETag and Cache-Control: no-cache — and answers 304 when the request's
// If-None-Match matches, reporting whether it did.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if !etagMatches(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.WriteHeader(http.StatusNotModified)
	return true
}

func (s *Server) handleExamples(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.redirectToOwner(w, r, e.Module.ID) {
		return
	}
	set, hash, ok := s.Store.Get(e.Module.ID)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate to annotate it)", e.Module.ID)
		return
	}
	if notModified(w, r, `"`+hash+`"`) {
		return
	}
	version, _ := s.Store.Version(e.Module.ID)
	writeJSON(w, http.StatusOK, examplesResponse{
		Module: e.Module.ID, Hash: hash, Version: version, Count: len(set), Examples: set,
	})
}

type generateResponse struct {
	Module   string          `json:"module"`
	Hash     string          `json:"hash"`
	Count    int             `json:"count"`
	Cached   bool            `json:"cached"`
	Changed  bool            `json:"changed,omitempty"`
	Examples dataexample.Set `json:"examples"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.readOnly() {
		writeError(w, http.StatusForbidden, "this node is a read-only follower; generate on its leader shard")
		return
	}
	if s.redirectToOwner(w, r, e.Module.ID) {
		return
	}
	if s.Source == nil {
		writeError(w, http.StatusNotImplemented, "generation is not enabled on this server")
		return
	}
	refresh := false
	if v := r.URL.Query().Get("refresh"); v != "" {
		refresh, _ = strconv.ParseBool(v)
	}
	var (
		set     dataexample.Set
		changed bool
		err     error
	)
	if refresh {
		set, _, changed, err = s.Source.RefreshContext(r.Context(), e.Module)
	} else {
		var rep *core.Report
		set, rep, err = s.Source.GenerateContext(r.Context(), e.Module)
		changed = rep != nil // a nil report means the set came from the store
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, "generating examples for %s: %v", e.Module.ID, err)
		return
	}
	hash, _ := s.Store.Hash(e.Module.ID)
	w.Header().Set("ETag", `"`+hash+`"`)
	writeJSON(w, http.StatusOK, generateResponse{
		Module: e.Module.ID, Hash: hash, Count: len(set), Cached: !changed, Changed: changed, Examples: set,
	})
}

type substituteInfo struct {
	ID       string  `json:"id"`
	Verdict  string  `json:"verdict"`
	Score    float64 `json:"score"`
	Compared int     `json:"compared"`
	Agreeing int     `json:"agreeing"`
}

type substitutesResponse struct {
	Target      string           `json:"target"`
	Hash        string           `json:"hash"`
	Substitutes []substituteInfo `json:"substitutes"`
	Skipped     []skippedInfo    `json:"skipped,omitempty"`
	// Cluster mode only: a scatter with failed shards degrades to a
	// partial ranking instead of failing. Absent on healthy answers, so
	// the healthy-cluster body stays byte-identical to a single node's.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failedShards,omitempty"`
}

// parseLimitParam reads ?limit= (0 = unlimited), answering the 400
// itself on a malformed value.
func parseLimitParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return 0, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		writeError(w, http.StatusBadRequest, "invalid limit %q", v)
		return 0, false
	}
	return n, true
}

type skippedInfo struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

func (s *Server) handleSubstitutes(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "substitute search is not enabled on this server")
		return
	}
	if s.clusterMode() {
		s.scatterSubstitutes(w, r, e)
		return
	}
	hash, ok := s.Store.Hash(e.Module.ID)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate first)", e.Module.ID)
		return
	}
	limit, ok := parseLimitParam(w, r)
	if !ok {
		return
	}
	state := s.substitutesStateKey(e.Module.ID, hash)
	if notModified(w, r, `"`+state+`"`) {
		return
	}
	subs, err := s.warmedSubstitutes(r, e.Module, hash, state)
	if err != nil {
		writeError(w, http.StatusBadGateway, "substitute search for %s: %v", e.Module.ID, err)
		return
	}
	ranked := subs.Ranked
	if limit > 0 && len(ranked) > limit {
		ranked = ranked[:limit]
	}
	resp := substitutesResponse{Target: e.Module.ID, Hash: hash}
	for _, c := range ranked {
		resp.Substitutes = append(resp.Substitutes, substituteInfo{
			ID:       c.Module.ID,
			Verdict:  c.Result.Verdict.String(),
			Score:    c.Result.Score(),
			Compared: c.Result.Compared,
			Agreeing: c.Result.Agreeing,
		})
	}
	for _, sk := range subs.Skipped {
		resp.Skipped = append(resp.Skipped, skippedInfo{ID: sk.ModuleID, Reason: sk.Reason})
	}
	writeJSON(w, http.StatusOK, resp)
}

type statsResponse struct {
	Store store.Stats `json:"store"`
	// GeneratorRuns counts on-demand generation runs performed by this
	// server's source (singleflight-deduplicated requests count once);
	// DedupHits counts requests that were collapsed onto another
	// caller's in-flight run.
	GeneratorRuns uint64 `json:"generatorRuns"`
	DedupHits     uint64 `json:"dedupHits"`
	Modules       int    `json:"modules"`
	Available     int    `json:"available"`
	Annotated     int    `json:"annotated"`
	// Telemetry is the full metrics-registry snapshot, present when the
	// server was wired with one — the JSON twin of GET /metrics.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Cluster describes this node's place in a sharded serving tier:
	// per-shard health on a shard node, replication lag on a follower.
	Cluster *clusterStats `json:"cluster,omitempty"`
	// Search is the search-index block — document, term and posting
	// counts plus the generation the pagination cursors bind to.
	Search *search.Stats `json:"search,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Store:     s.Store.Stats(),
		Modules:   s.Registry.Len(),
		Available: len(s.Registry.Available()),
		Annotated: s.Store.Len(),
	}
	if s.Source != nil {
		resp.GeneratorRuns = s.Source.Runs()
		resp.DedupHits = s.Source.SharedHits()
	}
	if s.Telemetry != nil {
		snap := s.Telemetry.Snapshot()
		resp.Telemetry = &snap
	}
	resp.Cluster = s.clusterStatsBlock()
	if s.SearchIndex != nil {
		st := s.SearchIndex.Stats()
		resp.Search = &st
	}
	writeJSON(w, http.StatusOK, resp)
}
