package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

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
// hits. In cluster mode the node answers from its own index too, with
// the other shards' stored annotations lent by their summaries (see
// handleSearch); no query crosses the network.

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
	params := r.URL.Query()
	raw := params.Get("q")
	q, err := search.ParseQuery(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, ok := parseLimitParam(w, params)
	if !ok {
		return
	}
	if limit == 0 {
		limit = defaultSearchLimit
	}
	cursor := params.Get("cursor")

	_, span := telemetry.StartSpan(r.Context(), "search.query")
	span.Annotate("query", raw)
	defer span.End()

	// In cluster mode this node's full-catalog index scores the query —
	// every shard holds the same keyword and concept statistics — and the
	// stored annotations of modules other shards own (examples, behavior
	// class, behaves: anchors) come from their summaries, kept current by
	// the router's watch (a shard whose watch is down is revalidated by
	// one conditional call), so the ranking equals the single-node one.
	// It is paginated by the same cursor machinery, bound to the
	// cluster-wide state (every answering shard's index nonce and
	// generation), so any shard's index moving or being rebuilt between
	// pages expires the walk as a local mutation would. A shard that does
	// not answer withholds its modules and makes the answer partial.
	var (
		page  search.Page
		state string // what the ETag binds to besides the page's query
		resp  = searchResponse{Query: raw}
	)
	if s.clusterMode() {
		s.watchOnce.Do(s.watchSummaries)
		view := s.Cluster.Router.SearchView(r.Context(), s.Cluster.Self)
		hits, gen := s.SearchIndex.MatchOverlay(q, view.Overlay)
		state = view.StateKey(s.Cluster.Self, search.Tag(s.SearchIndex.Nonce(), gen))
		h := fnv.New64a()
		h.Write([]byte(state))
		page, err = search.PaginateHits(hits, h.Sum64(), q.Key(), limit, cursor)
		resp.Partial, resp.FailedShards = len(view.FailedShards) > 0, view.FailedShards
	} else {
		page, err = s.SearchIndex.Search(q, limit, cursor)
		state = search.Tag(s.SearchIndex.Nonce(), page.Generation)
	}
	if errors.Is(err, search.ErrCursorExpired) {
		writeCursorExpired(w)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp.Hits, resp.Count, resp.Total = page.Hits, len(page.Hits), page.Total
	resp.NextCursor, resp.Generation = page.NextCursor, page.Generation
	// A partial ranking must not 304 against a complete one, so only
	// complete results carry the validator.
	etag := ""
	if !resp.Partial {
		etag = `"` + searchETag(state, q.Key(), cursor, limit) + `"`
		if notModified(w, r, etag) {
			return
		}
	}
	respondJSON(w, http.StatusOK, etag, resp)
}

// handleClusterSummary is GET /cluster/summary: this shard's index nonce
// and generation and the examples and behavior class of every module it
// owns and indexes, read together under the index's read lock. Their Tag
// is the ETag, checked before anything is read or encoded.
//
// With ?wait= (capped as /watch caps it) and an If-None-Match naming the
// current state, the request is a long-poll: it parks until the index
// moves (200), the wait ends (304) or the request ends. A draining server
// answers every waiter 503 at once, parked or new, so a watching peer
// learns that this shard is going away instead of holding its summary.
func (s *Server) handleClusterSummary(w http.ResponseWriter, r *http.Request) {
	ix := s.SearchIndex
	if ix == nil {
		writeError(w, http.StatusNotImplemented, "search is not enabled on this server")
		return
	}
	wait, ok := parseWait(w, r, 0)
	if !ok {
		return
	}
	if wait > 0 {
		gen := ix.Generation()
		if etagMatches(r.Header.Get("If-None-Match"), `"`+search.Tag(ix.Nonce(), gen)+`"`) {
			timer := time.NewTimer(wait)
			defer timer.Stop()
			select {
			case <-ix.Changed(gen):
			case <-timer.C:
			case <-s.drainCh():
			case <-r.Context().Done():
				return
			}
		}
		select {
		case <-s.drainCh():
			writeError(w, http.StatusServiceUnavailable, "draining: stop watching this shard")
			return
		default:
		}
	}
	if notModified(w, r, `"`+search.Tag(ix.Nonce(), ix.Generation())+`"`) {
		return
	}
	docs, gen := ix.Summary(s.Cluster.Owns)
	respondJSON(w, http.StatusOK, `"`+search.Tag(ix.Nonce(), gen)+`"`,
		cluster.Summary{Shard: s.Cluster.Self, Nonce: ix.Nonce(), Generation: gen, Docs: docs})
}

// watchSummaries starts the router's summary watch (see Router.Watch),
// which BeginDrain stops.
func (s *Server) watchSummaries() {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-s.drainCh()
		cancel()
	}()
	go s.Cluster.Router.Watch(ctx, s.Cluster.Self)
}

// handleClusterSearch is the shard side of Router.Search's scatter
// (POST /cluster/search), which the public /search no longer makes, in
// the two modes of cluster.SearchRequest: resolve maps owned behaves:
// anchors to behavior-class fingerprints; query runs the search against
// this shard's full-catalog index — identical keyword and concept
// statistics on every shard — and returns the hits this shard owns.
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
