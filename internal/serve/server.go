// Package serve is the annotation serving layer: it exposes the
// persistent example store over HTTP so generated data examples are
// browsable, cacheable and usable for substitute search without a fresh
// generation run. The endpoints (mounted under a prefix of the caller's
// choosing, /api in dexa-serve):
//
//	GET  /catalog                      — every registered module with annotation status;
//	                                     encoded once per catalog state, ETag = hash of
//	                                     the bytes, If-None-Match answers 304
//	GET  /modules/{id}                 — one module's signature, health and annotation metadata
//	GET  /modules/{id}/examples        — the stored example set, encoded once per stored
//	                                     record; ETag = content hash, If-None-Match
//	                                     answers 304 without touching the set
//	POST /modules/{id}/generate        — on-demand annotation through the store-backed
//	                                     source: concurrent identical requests collapse to
//	                                     one generator run (singleflight), the result is
//	                                     persisted before the first response leaves
//	POST /modules/{id}/generate?refresh=1 — force regeneration (content-hash no-op if stable)
//	GET  /modules/{id}/substitutes     — rank live substitutes for a module from its
//	                                     stored examples (the workflow-repair query);
//	                                     warmed per target and ETag'd on the catalog state,
//	                                     on a shard too (the target's set revalidated
//	                                     by a conditional fetch from its owner)
//	GET  /matches                      — the catalog-wide all-pairs verdict matrix over
//	                                     stored annotations; ETag = catalog state key,
//	                                     unchanged catalogs serve the cached build
//	GET  /search                       — ranked behavior-aware repository search
//	                                     (keywords, concept: expansion, behaves:
//	                                     classes); paginated, ETag'd on the index
//	                                     nonce and generation; on a shard answered from its own
//	                                     index over the other shards' summaries,
//	                                     kept current by one long-poll per shard
//	                                     (see search.go)
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
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"dexa/internal/cluster"
	"dexa/internal/compose"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/lifecycle"
	"dexa/internal/longpoll"
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
	// gathers the other shards' sets and builds the matrix here, a
	// /substitutes for a module another shard owns reads its examples
	// from the owner and ranks them here, /search reads the other shards'
	// held summaries, and reads of modules another shard owns redirect to
	// their owner. See cluster.go.
	Cluster *cluster.Node

	// SearchIndex, when set, mounts GET /search (behavior-aware catalog
	// search, see search.go) and adds the index block to /stats. The
	// caller owns keeping it synced to the registry and store — typically
	// via a search.Syncer's availability hook and replication watcher.
	SearchIndex *search.Index

	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
	Logger    *slog.Logger

	// Every answer derived from catalog state is memoised on a key that
	// moves whenever the answer may change (see versioned), so stored
	// annotations, availability flips and signature changes invalidate
	// them without any hook: the matrix state key, the /catalog answer
	// and the /compose view per catalogVersion (its memoised plans keep
	// their rendered /compose entries, see renderComposePlan), the
	// /matches answer per state key, each target's /substitutes answer
	// per subsKey, and each module's /examples answer per examplesKey.
	stateKey versioned[catalogVersion, string]
	catalog  versioned[catalogVersion, answer]
	matches  versioned[string, answer]
	matrix   matrixBuilder // what a /matches build keeps for the next
	view     versioned[viewKey, *compose.View]
	subs     sync.Map // target module ID -> *versioned[subsKey, subsAnswer]
	examples sync.Map // module ID -> *versioned[examplesKey, answer]

	memoOnce  sync.Once
	memoStats memoCounters

	// drain is closed by BeginDrain: long-poll handlers (/watch and
	// /cluster/summary here, the cluster WAL feed in its own package)
	// answer parked and new waiters immediately instead of holding the
	// shutdown window open.
	drain longpoll.Latch
}

// BeginDrain makes every long-poll waiter answer immediately, parked or
// future. Wire it to http.Server.RegisterOnShutdown so a SIGTERM's
// graceful drain is bounded by in-flight work, not poll timeouts.
func (s *Server) BeginDrain() { s.drain.Close() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.drain.Closed() }

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

// lookup resolves the path's module ID against the registry, reading
// the module and its availability together under the registry lock.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (m *module.Module, available, ok bool) {
	id := r.PathValue("id")
	if m, available, ok = s.Registry.Lookup(id); !ok {
		writeError(w, http.StatusNotFound, "unknown module %q", id)
	}
	return m, available, ok
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

// handleCatalog serves the catalog listing, encoded once per
// catalogVersion. Its ETag hashes the bytes, so nodes holding the same
// catalog agree on it.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	cat, _, err := s.catalog.get(s.catalogVersion(), func() (answer, bool, error) {
		body, err := encodeJSONBody(s.catalogListing())
		sum := sha256.Sum256(body)
		return answer{body: exact(body), etag: `"` + hex.EncodeToString(sum[:16]) + `"`}, true, err
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding catalog: %v", err)
		return
	}
	if notModified(w, r, cat.etag) {
		return
	}
	respond(w, http.StatusOK, cat)
}

// catalogListing is the /catalog body: every registered module in ID
// order with its availability and stored annotation.
func (s *Server) catalogListing() map[string]any {
	ids := s.Registry.IDs()
	out := make([]catalogEntry, 0, len(ids))
	for _, id := range ids {
		m, available, ok := s.Registry.Lookup(id)
		if !ok {
			continue
		}
		ce := catalogEntry{
			ID:        m.ID,
			Name:      m.Name,
			Kind:      m.Kind.String(),
			Form:      m.Form.String(),
			Provider:  m.Provider,
			Available: available,
		}
		if set, hash, ok := s.Store.Get(id); ok {
			ce.Examples = len(set)
			ce.Hash = hash
		}
		out = append(out, ce)
	}
	return map[string]any{"modules": out, "count": len(out)}
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
}

func params(ps []module.Parameter) []paramInfo {
	out := make([]paramInfo, len(ps))
	for i, p := range ps {
		out[i] = paramInfo{Name: p.Name, Struct: p.Struct.String(), Semantic: p.Semantic, Optional: p.Optional}
	}
	return out
}

func (s *Server) handleModule(w http.ResponseWriter, r *http.Request) {
	m, available, ok := s.lookup(w, r)
	if !ok {
		return
	}
	info := moduleInfo{
		ID: m.ID, Name: m.Name, Description: m.Description,
		Kind: m.Kind.String(), Form: m.Form.String(), Provider: m.Provider,
		Inputs: params(m.Inputs), Outputs: params(m.Outputs),
		Available: available,
	}
	if set, hash, version, ok := s.Store.GetVersioned(m.ID); ok {
		info.Examples = len(set)
		info.Hash = hash
		info.Version = version
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

// examplesKey is what a module's /examples body depends on: its stored
// record's content hash and version. Equal hashes mean equal canonical
// bytes, so the pair fixes the body; a version restarts at 1 after a
// delete, and the hash still tells the contents apart.
type examplesKey struct {
	hash    string
	version uint64
}

// handleExamples serves a module's stored example set, encoded once per
// stored record: set, hash and version are read from one record, and
// the body they render is kept until the record changes.
func (s *Server) handleExamples(w http.ResponseWriter, r *http.Request) {
	m, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.redirectToOwner(w, r, m.ID) {
		return
	}
	set, hash, version, ok := s.Store.GetVersioned(m.ID)
	if !ok {
		writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate to annotate it)", m.ID)
		return
	}
	etag := `"` + hash + `"`
	if notModified(w, r, etag) {
		return
	}
	memo := memoFor[examplesKey, answer](&s.examples, m.ID)
	a, hit, err := memo.get(examplesKey{hash, version}, func() (answer, bool, error) {
		body, err := encodeJSONBody(examplesResponse{
			Module: m.ID, Hash: hash, Version: version, Count: len(set), Examples: set,
		})
		return answer{body: exact(body), etag: etag}, true, err
	})
	s.memoMetrics().examples.record(hit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding examples for %s: %v", m.ID, err)
		return
	}
	respond(w, http.StatusOK, a)
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
	m, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.readOnly() {
		writeError(w, http.StatusForbidden, "this node is a read-only follower; generate on its leader shard")
		return
	}
	if s.redirectToOwner(w, r, m.ID) {
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
	// The set, its count and its hash come from one stored record, so
	// a concurrent write cannot pair this set with the next one's hash.
	var (
		set     dataexample.Set
		hash    string
		changed bool
		err     error
	)
	if refresh {
		set, hash, _, changed, err = s.Source.RefreshStored(r.Context(), m)
	} else {
		var rep *core.Report
		set, hash, rep, err = s.Source.GenerateStored(r.Context(), m)
		changed = rep != nil // a nil report means the set came from the store
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, "generating examples for %s: %v", m.ID, err)
		return
	}
	respondJSON(w, http.StatusOK, `"`+hash+`"`, generateResponse{
		Module: m.ID, Hash: hash, Count: len(set), Cached: !changed, Changed: changed, Examples: set,
	})
}

type substitutesResponse struct {
	Target      string                    `json:"target"`
	Hash        string                    `json:"hash"`
	Substitutes []cluster.SubstituteEntry `json:"substitutes"`
	Skipped     []cluster.SkippedEntry    `json:"skipped,omitempty"`
}

// parseLimitParam reads limit= from the request's parsed query (0 =
// unlimited), answering the 400 itself on a malformed value.
func parseLimitParam(w http.ResponseWriter, q url.Values) (int, bool) {
	v := q.Get("limit")
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

// handleSubstitutes answers a target's substitute ranking by one path on
// every node. Only where the target's hash and set come from differs: a
// single node, a follower and the owning shard read their own store; any
// other shard asks the owner (ownerExamples). Every node holds the whole
// registry, its executors and the signature index, so it then ranks
// every available candidate itself through warmedSubstitutes.
func (s *Server) handleSubstitutes(w http.ResponseWriter, r *http.Request) {
	m, _, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "substitute search is not enabled on this server")
		return
	}
	// limit= is read before the target's set, so a malformed one answers
	// 400 on a single node and a shard alike.
	limit, ok := parseLimitParam(w, r.URL.Query())
	if !ok {
		return
	}
	var (
		key subsKey
		set dataexample.Set
	)
	remote := s.clusterMode() && !s.Cluster.Owns(m.ID)
	if remote {
		if key, set, ok = s.ownerExamples(w, r, m.ID); !ok {
			return
		}
	} else {
		var hash string
		if set, hash, ok = s.Store.Get(m.ID); !ok {
			writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate first)", m.ID)
			return
		}
		key = s.subsKey(hash)
	}
	s.warmedSubstitutes(w, r, m.ID, limit, key, func() (substitutesResponse, error) {
		hash := key.hash
		if remote && set == nil {
			// The owner confirmed the kept hash, but the memo moved on
			// before this request read it: fetch the set after all.
			ss, err := s.Cluster.Router.FetchExamples(r.Context(), m.ID)
			if err != nil {
				return substitutesResponse{}, err
			}
			hash, set = ss.Hash, ss.Examples
		}
		subs, err := s.Comparer.FindSubstitutesContext(r.Context(),
			match.Unavailable{Signature: m, Examples: set}, s.Registry.Available())
		if err != nil {
			return substitutesResponse{}, err
		}
		resp := substitutesResponse{Target: m.ID, Hash: hash}
		resp.Substitutes, resp.Skipped = substituteEntries(subs.Ranked, subs.Skipped)
		return resp, nil
	})
}

// substituteEntries renders ranked candidates and skipped ones in the
// wire form a single node's /substitutes and a shard's reply share.
func substituteEntries(ranked []match.Candidate, skipped []match.Skipped) (subs []cluster.SubstituteEntry, skips []cluster.SkippedEntry) {
	for _, c := range ranked {
		subs = append(subs, cluster.SubstituteEntry{
			ID:       c.Module.ID,
			Verdict:  c.Result.Verdict.String(),
			Score:    c.Result.Score(),
			Compared: c.Result.Compared,
			Agreeing: c.Result.Agreeing,
		})
	}
	for _, sk := range skipped {
		skips = append(skips, cluster.SkippedEntry{ID: sk.ModuleID, Reason: sk.Reason})
	}
	return subs, skips
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
