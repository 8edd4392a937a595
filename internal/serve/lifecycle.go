package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dexa/internal/lifecycle"
)

// Lifecycle endpoints, mounted only when Server.Lifecycle is set:
//
//	GET  /lifecycle         — per-module state summary and counts
//	GET  /events            — transition-event history with cursor paging;
//	                          ETag = newest sequence number
//	GET  /watch             — long-poll change feed: blocks until the log
//	                          grows past the cursor (from ?cursor= or the
//	                          If-None-Match ETag), 304 on timeout
//	GET  /repairs           — the repair-proposal queue (?state= filters)
//	POST /repairs/{id}      — approve or reject one proposal

// maxWatchWait bounds how long one /watch request may hold a connection.
const maxWatchWait = 30 * time.Second

// defaultWatchWait is the long-poll window when ?wait= is absent.
const defaultWatchWait = 25 * time.Second

func (s *Server) lifecycleRoutes() []route {
	return []route{
		{http.MethodGet, "/lifecycle", s.handleLifecycle},
		{http.MethodGet, "/events", s.handleEvents},
		{http.MethodGet, "/watch", s.handleWatch},
		{http.MethodGet, "/repairs", s.handleRepairs},
		{http.MethodPost, "/repairs/{id}", s.handleRepairDecision},
	}
}

type lifecycleResponse struct {
	Modules []lifecycle.ModuleStatus `json:"modules"`
	Counts  map[string]int           `json:"counts"`
	Events  uint64                   `json:"events"`
	Pending int                      `json:"pending_repairs"`
}

func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request) {
	resp := lifecycleResponse{
		Modules: s.Lifecycle.Status(),
		Counts:  s.Lifecycle.Counts(),
		Events:  s.Lifecycle.Log().Seq(),
	}
	if q := s.Lifecycle.Queue(); q != nil {
		resp.Pending = q.Pending()
	}
	writeJSON(w, http.StatusOK, resp)
}

// eventsResponse carries a page of the transition log. Cursor is the
// resume point after consuming the page (pass it back as ?cursor= or let
// the ETag carry it).
type eventsResponse struct {
	Events []lifecycle.Event `json:"events"`
	Cursor uint64            `json:"cursor"`
	Total  uint64            `json:"total"`
}

// lifecycleETag renders a cursor as the change-feed entity tag.
func lifecycleETag(cursor uint64) string { return fmt.Sprintf(`"lc-%d"`, cursor) }

// cursorFromETag parses an If-None-Match header produced by
// lifecycleETag; ok is false for anything else.
func cursorFromETag(header string) (uint64, bool) {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		part = strings.Trim(part, `"`)
		if !strings.HasPrefix(part, "lc-") {
			continue
		}
		n, err := strconv.ParseUint(part[3:], 10, 64)
		if err == nil {
			return n, true
		}
	}
	return 0, false
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	log := s.Lifecycle.Log()
	cursor, _, err := parseCursor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, ok := parseLimitParam(w, r.URL.Query())
	if !ok {
		return
	}
	total := log.Seq()
	if notModified(w, r, lifecycleETag(total)) {
		return
	}
	events, next := log.Since(cursor, limit)
	respondJSON(w, http.StatusOK, lifecycleETag(total), eventsResponse{Events: events, Cursor: next, Total: total})
}

// parseCursor reads the resume cursor from ?cursor=, falling back to an
// lc-style If-None-Match tag.
func parseCursor(r *http.Request) (uint64, bool, error) {
	if v := r.URL.Query().Get("cursor"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, false, fmt.Errorf("invalid cursor %q", v)
		}
		return n, true, nil
	}
	if n, ok := cursorFromETag(r.Header.Get("If-None-Match")); ok {
		return n, true, nil
	}
	return 0, false, nil
}

// parseWait reads a long-poll's ?wait= duration, def when absent, capped
// at maxWatchWait; a malformed one answers 400 and reports false.
func parseWait(w http.ResponseWriter, r *http.Request, def time.Duration) (time.Duration, bool) {
	wait := def
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid wait %q", v)
			return 0, false
		}
		wait = d
	}
	return min(wait, maxWatchWait), true
}

// handleWatch is the long-poll change feed: it answers immediately with
// every event past the cursor, or blocks until one arrives or the wait
// window closes (304, same ETag — the client re-polls with it, so the
// cursor survives the round trip).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	log := s.Lifecycle.Log()
	cursor, _, err := parseCursor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wait, ok := parseWait(w, r, defaultWatchWait)
	if !ok {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	quiet := false
	select {
	case <-log.Changed(cursor):
	case <-timer.C:
		quiet = true
	case <-s.drainCh():
		// Shutting down: answer like a quiet window so the client re-polls
		// (and lands on another instance) instead of holding the drain open.
		quiet = true
	case <-r.Context().Done():
		return
	}
	if quiet {
		respond(w, http.StatusNotModified, answer{etag: lifecycleETag(cursor)})
		return
	}
	events, next := log.Since(cursor, 0)
	respondJSON(w, http.StatusOK, lifecycleETag(next), eventsResponse{Events: events, Cursor: next, Total: log.Seq()})
}

type repairsResponse struct {
	Proposals []lifecycle.Proposal `json:"proposals"`
	Count     int                  `json:"count"`
	Pending   int                  `json:"pending"`
}

func (s *Server) repairQueue(w http.ResponseWriter) (*lifecycle.Queue, bool) {
	q := s.Lifecycle.Queue()
	if q == nil {
		writeError(w, http.StatusNotImplemented, "the repair queue is not enabled on this server")
		return nil, false
	}
	return q, true
}

func (s *Server) handleRepairs(w http.ResponseWriter, r *http.Request) {
	q, ok := s.repairQueue(w)
	if !ok {
		return
	}
	state := lifecycle.ProposalState(r.URL.Query().Get("state"))
	switch state {
	case "", lifecycle.ProposalPending, lifecycle.ProposalApproved, lifecycle.ProposalRejected:
	default:
		writeError(w, http.StatusBadRequest, "invalid state %q", state)
		return
	}
	props := q.List(state)
	writeJSON(w, http.StatusOK, repairsResponse{Proposals: props, Count: len(props), Pending: q.Pending()})
}

// repairDecision is the POST /repairs/{id} body.
type repairDecision struct {
	Action string `json:"action"` // "approve" | "reject"
}

func (s *Server) handleRepairDecision(w http.ResponseWriter, r *http.Request) {
	q, ok := s.repairQueue(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	var dec repairDecision
	if err := json.NewDecoder(r.Body).Decode(&dec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding decision: %v", err)
		return
	}
	var approve bool
	switch dec.Action {
	case "approve":
		approve = true
	case "reject":
	default:
		writeError(w, http.StatusBadRequest, "invalid action %q (want approve or reject)", dec.Action)
		return
	}
	p, err := q.Resolve(id, approve, s.Lifecycle.Now())
	if err != nil {
		status := http.StatusNotFound
		if strings.Contains(err.Error(), "already") {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}
