package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"

	"dexa/internal/cluster"
	"dexa/internal/search"
	"dexa/internal/telemetry"
)

// GET /search — behavior-aware repository search over the live catalog:
//
//	?q=       the query: free keywords, concept:<Concept> atoms (expanded
//	          through the ontology's subsumption hierarchy) and
//	          behaves:<moduleID> atoms (modules whose stored example set
//	          fingerprints to the same behavior class as the anchor)
//	?limit=   page size (default 20)
//	?cursor=  opaque resume cursor from a previous page's nextCursor
//
// Responses are ranked deterministically (score desc, module ID asc) and
// ETag'd on the index generation plus the query, so an unchanged catalog
// revalidates with 304. A catalog mutation between pages answers 410
// with {"restart": true} — the cursor is bound to the index generation
// and silently resuming over a shifted ranking would skip or duplicate
// hits. In cluster mode the query scatter-gathers across the ring (see
// scatterSearch); otherwise it runs on the local index.

// defaultSearchLimit pages /search when no ?limit= is given.
const defaultSearchLimit = 20

type searchResponse struct {
	Query      string       `json:"query"`
	Hits       []search.Hit `json:"hits"`
	Count      int          `json:"count"`
	Total      int          `json:"total"`
	NextCursor string       `json:"nextCursor,omitempty"`
	Generation uint64       `json:"generation"`
	// Cluster mode only: failed shards degrade the ranking to a partial
	// one (never ETag'd) instead of failing the query.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failedShards,omitempty"`
}

// searchETag derives the entity tag for one page: any index mutation,
// different query, page position or size yields a different tag.
func searchETag(state, queryKey, cursor string, limit int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%s|%d", state, queryKey, cursor, limit)))
	return hex.EncodeToString(sum[:])[:32]
}

// writeCursorExpired answers the 410 that tells pagination clients to
// restart from the first page: the catalog changed underneath the walk.
func writeCursorExpired(w http.ResponseWriter) {
	writeJSON(w, http.StatusGone, map[string]any{
		"error":   "cursor expired: the catalog changed since this page walk began",
		"restart": true,
	})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.SearchIndex == nil {
		writeError(w, http.StatusNotImplemented, "search is not enabled on this server")
		return
	}
	raw := r.URL.Query().Get("q")
	q, err := search.ParseQuery(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, ok := parseLimitParam(w, r)
	if !ok {
		return
	}
	if limit == 0 {
		limit = defaultSearchLimit
	}
	cursor := r.URL.Query().Get("cursor")

	_, span := telemetry.StartSpan(r.Context(), "search.query")
	span.Annotate("query", raw)
	defer span.End()

	if s.clusterMode() {
		s.scatterSearch(w, r, raw, q, limit, cursor)
		return
	}

	page, err := s.SearchIndex.Search(q, limit, cursor)
	if errors.Is(err, search.ErrCursorExpired) {
		writeCursorExpired(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if notModified(w, r, `"`+searchETag(fmt.Sprintf("%d", page.Generation), q.Key(), cursor, limit)+`"`) {
		return
	}
	writeJSON(w, http.StatusOK, searchResponse{
		Query:      raw,
		Hits:       page.Hits,
		Count:      len(page.Hits),
		Total:      page.Total,
		NextCursor: page.NextCursor,
		Generation: page.Generation,
	})
}

// scatterSearch is the cluster-mode /search: behaves: anchors resolve on
// their owner shards, the query fans out with the anchors attached, each
// shard answers its owned slice against its full-catalog index, and the
// merged ranking — identical postings statistics on every shard — equals
// the single-node ranking. The merged list is paginated with the same
// cursor machinery the local path uses; the cursor binds to the
// cluster-wide generation (every shard's index generation), so any
// shard's index moving between pages expires the walk just as a local
// mutation would.
func (s *Server) scatterSearch(w http.ResponseWriter, r *http.Request, raw string, q search.Query, limit int, cursor string) {
	res, err := s.Cluster.Router.Search(r.Context(), raw, q.Behaves)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster search: %v", err)
		return
	}
	h := fnv.New64a()
	h.Write([]byte(res.StateKey))
	gen := h.Sum64()
	page, err := search.PaginateHits(res.Hits, gen, q.Key(), limit, cursor)
	if errors.Is(err, search.ErrCursorExpired) {
		writeCursorExpired(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A partial ranking must not 304 against a complete one, so only
	// complete results carry the validator.
	if !res.Partial {
		if notModified(w, r, `"`+searchETag(res.StateKey, q.Key(), cursor, limit)+`"`) {
			return
		}
	}
	writeJSON(w, http.StatusOK, searchResponse{
		Query:        raw,
		Hits:         page.Hits,
		Count:        len(page.Hits),
		Total:        page.Total,
		NextCursor:   page.NextCursor,
		Generation:   page.Generation,
		Partial:      res.Partial,
		FailedShards: res.FailedShards,
	})
}

// handleClusterSearch is the shard side of the scatter (POST
// /cluster/search), in the two modes of cluster.SearchRequest: resolve
// maps owned behaves: anchors to behavior-class fingerprints; query runs
// the search against this shard's full-catalog index — identical keyword
// and concept statistics on every shard — and returns the hits this
// shard owns.
func (s *Server) handleClusterSearch(w http.ResponseWriter, r *http.Request) {
	if s.SearchIndex == nil {
		writeError(w, http.StatusNotImplemented, "search is not enabled on this server")
		return
	}
	var req cluster.SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding search request: %v", err)
		return
	}
	if len(req.Resolve) > 0 {
		reply := cluster.SearchReply{
			Shard:        s.Cluster.Self,
			Generation:   s.SearchIndex.Generation(),
			Fingerprints: map[string]string{},
		}
		for _, id := range req.Resolve {
			if fp, ok := s.SearchIndex.BehaviorClass(id); ok && fp != "" {
				reply.Fingerprints[id] = fp
			}
		}
		writeJSON(w, http.StatusOK, reply)
		return
	}
	q, err := search.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q.AnchorFingerprints = req.Anchors
	hits, gen := s.SearchIndex.Match(q)
	owned := hits[:0]
	for _, h := range hits {
		if s.Cluster.Owns(h.ID) {
			owned = append(owned, h)
		}
	}
	writeJSON(w, http.StatusOK, cluster.SearchReply{
		Shard:      s.Cluster.Self,
		Generation: gen,
		Hits:       owned,
	})
}
