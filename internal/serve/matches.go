package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
)

// matchesResponse wraps the matrix with the cache state it was computed
// under, so clients can correlate a body with its ETag.
type matchesResponse struct {
	State  string             `json:"state"`
	Matrix *match.MatchMatrix `json:"matrix"`
	// Cluster mode only: a scatter with failed shards degrades to a
	// partial matrix instead of failing. Absent on healthy answers, so
	// the healthy-cluster body matches a single node's shape.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failedShards,omitempty"`
}

// matrixCache memoizes the last all-pairs matrix build together with the
// catalog state it reflects and its encoded response bytes. The state
// key folds every registered module's stored-set content hash (and the
// signature index generation, when one is wired), so any annotation
// change — or an index Update/Remove after a signature change — produces
// a different key and forces a rebuild; an unchanged catalog serves the
// cached bytes verbatim (no re-serialisation per request) and lets
// If-None-Match answer 304 without recomputation. A rebuild is a fresh
// MatchMatrixFromKeyedSets call, whose cost follows the index's feasible
// pairs rather than the n² pair grid, so there is no per-module state to
// patch between builds.
type matrixCache struct {
	mu     sync.Mutex
	state  string
	matrix *match.MatchMatrix
	body   []byte
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

// matrixStateKey fingerprints everything the matrix depends on: the
// mapping mode, the index generation (signature churn), and each
// registered module's stored-annotation content hash. Modules without a
// stored set contribute their absence, so annotating one later changes
// the key.
func (s *Server) matrixStateKey() string {
	h := sha256.New()
	io.WriteString(h, s.Comparer.Mode.String())
	h.Write([]byte{0})
	if s.Comparer.Index != nil {
		fmt.Fprintf(h, "g%d", s.Comparer.Index.Generation())
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

// handleMatches serves the catalog-wide verdict matrix over the stored
// annotations. The ETag is the catalog state key: If-None-Match answers
// 304 before any work, a matching cached build answers without
// recomputation, and only a genuinely changed catalog pays for a sweep.
func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "matching is not enabled on this server")
		return
	}
	if s.clusterMode() {
		s.scatterMatches(w, r)
		return
	}
	state := s.matrixStateKey()
	etag := `"` + state + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	s.matrix.mu.Lock()
	defer s.matrix.mu.Unlock()
	if s.matrix.matrix == nil || s.matrix.state != state {
		keyedSet := func(id string) (*dataexample.KeyedSet, bool) {
			set, _, ok := s.Store.GetKeyed(id)
			return set, ok
		}
		mm, err := s.Comparer.MatchMatrixFromKeyedSets(r.Context(), s.Registry.Modules(), keyedSet)
		if err != nil {
			writeError(w, http.StatusBadGateway, "building match matrix: %v", err)
			return
		}
		body, err := encodeJSONBody(matchesResponse{State: state, Matrix: mm})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding match matrix: %v", err)
			return
		}
		s.matrix.state = state
		s.matrix.matrix = mm
		s.matrix.body = body
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(s.matrix.body)
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
