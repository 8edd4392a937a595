package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"slices"
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

// matrixStateKey fingerprints everything the matrix depends on, computed
// once per catalogVersion: an unchanged catalog revalidates /matches
// without rehashing it.
func (s *Server) matrixStateKey() string {
	v := s.catalogVersion()
	key, _, _ := s.stateKey.get(v, func() (string, bool, error) {
		return s.contentStateKey(v.index), true, nil
	})
	return key
}

// contentStateKey derives the matrix state key: the mapping mode, the
// index nonce and generation (signature churn), and each registered
// module's stored-annotation content hash. Modules without a stored set
// contribute their absence, so annotating one later changes the key.
// The nonce is per index instance, so a key minted before a restart
// never matches one after it, even at the same generation.
func (s *Server) contentStateKey(indexGen uint64) string {
	// One buffer hashed at once: a string written to the hash one by one
	// is copied to the heap each time.
	buf := append([]byte(s.Comparer.Mode.String()), 0)
	if s.Comparer.Index != nil {
		buf = fmt.Appendf(buf, "g%s.%d", s.Comparer.Index.Nonce(), indexGen)
		buf = append(buf, 0)
	}
	for _, id := range s.Registry.IDs() {
		hash, _ := s.Store.Hash(id)
		buf = append(buf, id...)
		buf = append(buf, 0)
		buf = append(buf, hash...)
		buf = append(buf, 0)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])[:32]
}

// subsKey is what one target's substitute ranking depends on: the
// target's stored-set hash, the registry generation (every Register and
// availability flip; candidates are invoked live, so their availability,
// not their stored annotations, is what the ranking reads) and the
// signature index generation, each generation with its owner's nonce.
// The store's sequence is left out on purpose: writes to other modules'
// annotations do not change the ranking, and under a steady write load
// they would evict it on almost every request.
type subsKey struct {
	hash                      string
	registry, index           uint64
	registryNonce, indexNonce string
}

func (s *Server) subsKey(targetHash string) subsKey {
	return subsKey{
		hash:          targetHash,
		registry:      s.Registry.Generation(),
		index:         s.Comparer.Index.Generation(),
		registryNonce: s.Registry.Nonce(),
		indexNonce:    s.Comparer.Index.Nonce(),
	}
}

// etag renders the key as the target's /substitutes validator.
func (k subsKey) etag() string {
	return fmt.Sprintf(`"%s.%s.%d.%s.%d"`, k.hash, k.registryNonce, k.registry, k.indexNonce, k.index)
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
	etag := `"` + src.state + `"`
	if len(src.failed) == 0 && notModified(w, r, etag) {
		return
	}

	// A partial state round names fewer shards than a complete one, so
	// its key never equals a kept (complete) answer's. A gather can fail
	// shards too; a partial answer carries no validator.
	a, _, err := s.matches.get(src.state, func() (answer, bool, error) {
		body, err := s.buildMatches(ctx, src)
		if len(src.failed) > 0 {
			return answer{body: body}, false, err
		}
		return answer{body: body, etag: etag}, true, err
	})
	if err != nil {
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	respond(w, http.StatusOK, a)
}

// buildMatches loads src's sets, builds the matrix from them and encodes
// the /matches body.
func (s *Server) buildMatches(ctx context.Context, src *matrixSource) ([]byte, error) {
	source, err := src.load(ctx)
	if err != nil {
		return nil, err
	}
	return s.matrix.body(ctx, s.Comparer, s.Registry.Modules(), source, !s.clusterMode(),
		matchesResponse{State: src.state, Partial: len(src.failed) > 0, FailedShards: src.failed})
}

// matrixBuilder is what /matches keeps from one build to the next: an
// IncrementalMatrix, which realigns only the pairs whose sets changed,
// and the last body's cells with each one's encoded JSON fragment, so a
// body encodes only its new or changed cells and copies the rest. The
// fragments are slices of the last body, which the /matches memo holds
// anyway.
type matrixBuilder struct {
	mu    sync.Mutex
	im    *match.IncrementalMatrix
	cells []match.MatrixCell // the last body's cells, in (target, candidate) order
	frags [][]byte           // frags[i]: cells[i] as encoded in the last body
}

// body builds the matrix over mods and source and returns resp carrying
// it, rendered byte for byte as encodeJSONBody renders it. keep says
// that source hands out the store's own sets, whose pointers persist
// from one build to the next; only then is the IncrementalMatrix used. A
// cluster gather decodes new sets every time, so a kept builder would
// copy nothing and only pin the last gather's sets.
func (b *matrixBuilder) body(ctx context.Context, cmp *match.Comparer, mods []*module.Module, source match.KeyedSource, keep bool, resp matchesResponse) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	build := cmp.MatchMatrixFromKeyedSets
	if keep {
		if b.im == nil {
			b.im = match.NewIncrementalMatrix(cmp)
		}
		build = b.im.Matrix
	}
	mm, err := build(ctx, mods, source)
	if err != nil {
		return nil, fmt.Errorf("building match matrix: %w", err)
	}
	// Encode the response around an empty cell list, then splice the
	// cells' fragments in between its brackets. Both cell lists are in
	// (target, candidate) order, so one merge finds the kept fragments.
	skeleton := *mm
	skeleton.Cells = []match.MatrixCell{}
	resp.Matrix = &skeleton
	skel, err := encodeJSONBody(resp)
	if err != nil {
		return nil, err
	}
	frags := make([][]byte, len(mm.Cells))
	j := 0
	for i, c := range mm.Cells {
		for j < len(b.cells) && (b.cells[j].Target < c.Target ||
			b.cells[j].Target == c.Target && b.cells[j].Candidate < c.Candidate) {
			j++
		}
		if j < len(b.cells) && b.cells[j] == c {
			frags[i] = b.frags[j]
		} else if frags[i], err = encodeEntry(c, 2); err != nil {
			return nil, err
		}
	}
	body := splice(skel, "cells", 2, frags)
	b.cells, b.frags = mm.Cells, frags
	return body, nil
}

// subsAnswer is what a target's /substitutes keeps per subsKey: the
// answer, encoded once, for every request without a truncating limit=,
// and for one with it the envelope around an empty ranking and each
// entry's fragment, which points into the answer's body.
type subsAnswer struct {
	answer
	skel  []byte
	frags [][]byte
}

// keptBytes counts the body and the envelope; the fragments point into
// the body.
func (a subsAnswer) keptBytes() int { return len(a.body) + len(a.skel) }

// warmedSubstitutes answers the /substitutes of target at key: 304 when
// the request holds key's validator, otherwise the answer memoised at
// key, which rank builds on a miss. A limit= below the ranking's length
// splices the kept entries into a new body. A ranking of a set other
// than the one key.hash names reaches its caller only: it carries no
// validator and is not kept.
func (s *Server) warmedSubstitutes(w http.ResponseWriter, r *http.Request, target string, limit int, key subsKey, rank func() (substitutesResponse, error)) {
	if notModified(w, r, key.etag()) {
		return
	}
	memo := memoFor[subsKey, subsAnswer](&s.subs, target)
	ans, hit, err := memo.get(key, func() (subsAnswer, bool, error) {
		resp, err := rank()
		if err != nil {
			return subsAnswer{}, false, err
		}
		// An empty ranking is nil: it encodes as null, and nothing is spliced.
		ranked := resp.Substitutes
		resp.Substitutes = ranked[:0]
		a := subsAnswer{frags: make([][]byte, len(ranked))}
		if a.skel, err = encodeJSONBody(resp); err != nil {
			return subsAnswer{}, false, err
		}
		for i, e := range ranked {
			if a.frags[i], err = encodeEntry(e, 1); err != nil {
				return subsAnswer{}, false, err
			}
		}
		a.body = splice(a.skel, "substitutes", 1, a.frags)
		keep := resp.Hash == key.hash
		if keep {
			a.etag = key.etag()
		}
		return a, keep, nil
	})
	s.memoMetrics().subs.record(hit)
	if err != nil {
		writeError(w, fetchStatus(err), "substitute search for %s: %v", target, err)
		return
	}
	if limit == 0 || limit >= len(ans.frags) {
		respond(w, http.StatusOK, ans.answer)
		return
	}
	// The kept fragments stay where they are: splice repoints a copy.
	body := splice(ans.skel, "substitutes", 1, slices.Clone(ans.frags[:limit]))
	respond(w, http.StatusOK, answer{body: body, etag: ans.etag})
}
