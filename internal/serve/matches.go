package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// matchesResponse wraps the matrix with the cache state it was computed
// under, so clients can correlate a body with its ETag.
type matchesResponse struct {
	State  string             `json:"state"`
	Matrix *match.MatchMatrix `json:"matrix"`
	// Cluster mode only: a gather with failed shards degrades to a
	// partial matrix instead of failing. Absent on healthy answers, so
	// the healthy-cluster body matches a single node's shape.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failedShards,omitempty"`
}

// matrixCache memoizes the last complete all-pairs matrix build together
// with the catalog state it reflects and its encoded response bytes. In
// a cluster the state key hashes every shard's replication sequence; on
// a single node it folds every registered module's stored-set content
// hash (and the signature index generation, when one is wired), so any
// annotation change — or an index Update/Remove after a signature
// change — produces a different key and forces a rebuild; an unchanged catalog serves the
// cached bytes verbatim (no re-serialisation per request) and lets
// If-None-Match answer 304 without recomputation. A rebuild is a fresh
// MatchMatrixFromKeyedSets call, whose cost follows the index's feasible
// pairs rather than the n² pair grid, so there is no per-module state to
// patch between builds.
type matrixCache struct {
	mu    sync.Mutex
	state string
	body  []byte
}

// subsEntry is one warmed substitute search: the full (unlimited)
// ranking plus the state key it was computed under. The limit query
// parameter is applied per request, so every limit shares one entry.
type subsEntry struct {
	state string
	hash  string
	subs  match.Substitutes
}

// subsCache memoizes substitute searches per target module.
type subsCache struct {
	mu      sync.Mutex
	entries map[string]subsEntry
}

// catalogVersion is a vector of cheap counters that moves whenever a
// catalog-state answer may change: the registry generation (Register and
// every availability flip), the store's content version (every mutation,
// and every replication reset, which can revisit a sequence number) and
// the signature index generation. Each counter moves only after its
// change is readable, so state derived after reading the version is at
// least as new as the version.
type catalogVersion struct{ registry, resets, seq, index uint64 }

func (s *Server) catalogVersion() catalogVersion {
	v := catalogVersion{registry: s.Registry.Generation()}
	v.resets, v.seq = s.Store.ContentVersion()
	if s.Comparer != nil && s.Comparer.Index != nil {
		v.index = s.Comparer.Index.Generation()
	}
	return v
}

// stateKeyMemo holds the last matrix state key with the catalogVersion
// it was computed at.
type stateKeyMemo struct {
	mu      sync.Mutex
	version catalogVersion
	key     string
}

// matrixStateKey fingerprints everything the matrix depends on, computed
// once per catalogVersion: an unchanged catalog revalidates /matches
// without rehashing it.
func (s *Server) matrixStateKey() string {
	v := s.catalogVersion()
	s.stateKey.mu.Lock()
	defer s.stateKey.mu.Unlock()
	if s.stateKey.key == "" || s.stateKey.version != v {
		s.stateKey.version, s.stateKey.key = v, s.contentStateKey(v.index)
	}
	return s.stateKey.key
}

// contentStateKey derives the matrix state key from content: the
// mapping mode, the index generation (signature churn), and each
// registered module's stored-annotation content hash. Modules without a
// stored set contribute their absence, so annotating one later changes
// the key. Content-derived, it agrees across a leader, its followers and
// a restarted node holding the same catalog.
func (s *Server) contentStateKey(indexGen uint64) string {
	h := sha256.New()
	io.WriteString(h, s.Comparer.Mode.String())
	h.Write([]byte{0})
	if s.Comparer.Index != nil {
		fmt.Fprintf(h, "g%d", indexGen)
		h.Write([]byte{0})
	}
	for _, id := range s.Registry.IDs() {
		hash, _ := s.Store.Hash(id)
		io.WriteString(h, id)
		h.Write([]byte{0})
		io.WriteString(h, hash)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// substitutesStateKey fingerprints a substitute search for one target:
// the mode, the target's stored-set hash, and the availability of the
// candidate set (candidates are invoked live, so their availability —
// not their stored annotations — is what the result depends on).
//
// With an index wired (and kept in sync with availability by SyncIndex,
// the registry hook every flip, lifecycle ones included, goes through),
// the generation counter subsumes the candidate set: every availability
// flip and signature change bumps it, so the key is O(1) per request. Without an index the key falls back to
// folding the sorted available-module IDs — correct, but O(catalog).
func (s *Server) substitutesStateKey(targetID, targetHash string) string {
	h := sha256.New()
	io.WriteString(h, s.Comparer.Mode.String())
	h.Write([]byte{0})
	io.WriteString(h, targetID)
	h.Write([]byte{0})
	io.WriteString(h, targetHash)
	h.Write([]byte{0})
	if s.Comparer.Index != nil {
		fmt.Fprintf(h, "g%d", s.Comparer.Index.Generation())
		h.Write([]byte{0})
	} else {
		avail := s.Registry.Available()
		ids := make([]string, len(avail))
		for i, m := range avail {
			ids[i] = m.ID
		}
		sort.Strings(ids)
		for _, id := range ids {
			io.WriteString(h, id)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// matrixSource is where one /matches answer comes from. state keys its
// ETag and cache entry, and load yields the keyed sets to build from; it
// runs only on a cache miss. Shards listed in failed — by the state round
// or by load — make the answer partial, and a partial answer is neither
// ETag'd nor cached, so it can never 304 against a complete one.
type matrixSource struct {
	state  string
	failed []string
	load   func(ctx context.Context) (match.KeyedSource, error)
	// Cluster mode: the shards whose sets load gathered, and how many
	// sets arrived.
	gathered []string
	sets     int
}

// storeMatrixSource is the single-node matrixSource: the catalog state
// key and the local store's keyed sets.
func (s *Server) storeMatrixSource() *matrixSource {
	return &matrixSource{
		state: s.matrixStateKey(),
		load: func(context.Context) (match.KeyedSource, error) {
			return s.storeKeyed, nil
		},
	}
}

// storeKeyed resolves a module's keyed set from the local store.
func (s *Server) storeKeyed(id string) (*dataexample.KeyedSet, bool) {
	set, _, ok := s.Store.GetKeyed(id)
	return set, ok
}

// handleMatches serves the catalog-wide verdict matrix over the stored
// annotations, on a single node and in a cluster alike: the ETag is the
// state key, If-None-Match answers 304 before any work, a matching
// cached build answers without recomputation, and only a changed
// catalog loads its sets and pays for a build.
func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "matching is not enabled on this server")
		return
	}
	ctx := r.Context()
	var src *matrixSource
	if !s.clusterMode() {
		src = s.storeMatrixSource()
	} else {
		var span *telemetry.Span
		ctx, span = telemetry.StartSpan(ctx, "cluster.matrix")
		defer span.End()
		var err error
		if src, err = s.clusterMatrixSource(ctx); err != nil {
			span.Fail(err)
			writeError(w, http.StatusBadGateway, "cluster matrix build: %v", err)
			return
		}
		defer func() {
			span.Annotate("shards", strings.Join(src.gathered, ","))
			span.Annotate("failed", strings.Join(src.failed, ","))
			span.Annotate("sets", strconv.Itoa(src.sets))
		}()
	}
	complete := len(src.failed) == 0
	if complete && notModified(w, r, `"`+src.state+`"`) {
		return
	}

	s.matrix.mu.Lock()
	defer s.matrix.mu.Unlock()
	if complete && s.matrix.body != nil && s.matrix.state == src.state {
		writeBody(w, s.matrix.body)
		return
	}
	body, err := s.buildMatches(ctx, src)
	if err != nil || len(src.failed) > 0 {
		// The validator went out before the build; only a complete
		// answer keeps it.
		w.Header().Del("ETag")
		w.Header().Del("Cache-Control")
	}
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	if len(src.failed) == 0 {
		s.matrix.state, s.matrix.body = src.state, body
	}
	writeBody(w, body)
}

// buildMatches loads src's sets, builds the matrix from them and encodes
// the /matches body.
func (s *Server) buildMatches(ctx context.Context, src *matrixSource) ([]byte, error) {
	source, err := src.load(ctx)
	if err != nil {
		return nil, err
	}
	mm, err := s.Comparer.MatchMatrixFromKeyedSets(ctx, s.Registry.Modules(), source)
	if err != nil {
		return nil, fmt.Errorf("building match matrix: %w", err)
	}
	return encodeJSONBody(matchesResponse{State: src.state, Matrix: mm, Partial: len(src.failed) > 0, FailedShards: src.failed})
}

// writeBody writes pre-encoded JSON bytes as a 200.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// encodeJSONBody renders v exactly as writeJSON does (two-space indent,
// trailing newline, HTML-escaped), so cached bytes are indistinguishable
// from a per-request encode.
func encodeJSONBody(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// warmedSubstitutes returns the cached substitute search for the target
// when the catalog state still matches, running and caching the search
// otherwise. Concurrent requests serialise on the cache lock, so
// identical searches arriving together collapse onto one run (the
// second request hits the entry the first one just warmed).
func (s *Server) warmedSubstitutes(r *http.Request, target *module.Module, targetHash, state string) (match.Substitutes, error) {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	if e, ok := s.subs.entries[target.ID]; ok && e.state == state {
		return e.subs, nil
	}
	subs, err := s.Comparer.FindSubstitutesStoredContext(r.Context(), s.Store, target, s.Registry.Available())
	if err != nil {
		return match.Substitutes{}, err
	}
	if s.subs.entries == nil {
		s.subs.entries = map[string]subsEntry{}
	}
	s.subs.entries[target.ID] = subsEntry{state: state, hash: targetHash, subs: subs}
	return subs, nil
}
