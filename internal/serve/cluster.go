package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dexa/internal/cluster"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// Cluster endpoints and behaviour, active only when Server.Cluster is
// set. A shard node mounts the intra-cluster API:
//
//	GET  /cluster/info        — this node's identity and replication seq
//	GET  /cluster/sets        — every annotation this shard stores
//	POST /cluster/substitutes — rank a candidate slice against shipped examples
//	GET  /cluster/summary     — this shard's index nonce and generation and the
//	                            examples and behavior class of every module it
//	                            owns; ETag = "<nonce>.<generation>",
//	                            If-None-Match answers 304
//	GET  /cluster/summary?wait= — the same as a long-poll: a current
//	                            If-None-Match parks until the index moves or
//	                            the wait ends (304); 503 once draining
//	POST /cluster/search      — rank this shard's hits, or resolve behaves:
//	                            anchors (Router.Search's scatter, which the
//	                            public /search no longer makes)
//
// and changes how the public query routes answer: /modules/{id}/substitutes
// scatter-gathers across the ring through the cluster Router, /search
// answers from this node's index over the other shards' summaries (held
// current by one long-poll per shard, called for while a shard's watch is
// down), and /matches gathers every other shard's sets and builds the
// matrix locally (answers are byte-identical to a single node holding
// the whole catalog; failed shards degrade the response to a partial
// one instead of failing it), while /examples and /generate for a module another
// shard owns answer 307 to the owner. /substitutes keeps each target's
// complete answer as a single node does and, warm, only revalidates the
// target's examples with their owner by one conditional fetch. A
// follower node mounts /cluster/info only and serves its replicated
// slice read-only.

func (s *Server) clusterRoutes() []route {
	rts := []route{
		{http.MethodGet, "/cluster/info", s.handleClusterInfo},
	}
	if s.Cluster.Role == cluster.RoleShard {
		rts = append(rts,
			route{http.MethodGet, "/cluster/sets", s.handleClusterSets},
			route{http.MethodPost, "/cluster/substitutes", s.handleClusterSubstitutes},
			route{http.MethodGet, "/cluster/summary", s.handleClusterSummary},
			route{http.MethodPost, "/cluster/search", s.handleClusterSearch},
		)
	}
	return rts
}

// clusterMode reports whether public queries scatter-gather: only shard
// nodes route; followers answer from their replicated slice.
func (s *Server) clusterMode() bool {
	return s.Cluster != nil && s.Cluster.Role == cluster.RoleShard && s.Cluster.Router != nil
}

// readOnly reports whether mutating endpoints must refuse: a follower
// mirrors its leader, so accepting a local write would diverge it.
func (s *Server) readOnly() bool {
	return s.Cluster != nil && s.Cluster.Role == cluster.RoleFollower
}

// redirectToOwner answers 307 to the shard owning the module when this
// shard node is not it, and reports whether it did. 307 preserves the
// method, so POST /generate lands on the owner as a POST.
func (s *Server) redirectToOwner(w http.ResponseWriter, r *http.Request, id string) bool {
	n := s.Cluster
	if n == nil || n.Role != cluster.RoleShard || n.Owns(id) {
		return false
	}
	base := n.OwnerURL(id)
	if base == "" {
		return false
	}
	prefix := "/api"
	if n.Router != nil && n.Router.APIPrefix != "" {
		prefix = n.Router.APIPrefix
	}
	loc := strings.TrimSuffix(base, "/") + prefix + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		loc += "?" + q
	}
	http.Redirect(w, r, loc, http.StatusTemporaryRedirect)
	return true
}

func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	info := cluster.Info{
		Shard:   s.Cluster.Self,
		Role:    s.Cluster.Role,
		Seq:     s.Store.Seq(),
		Modules: s.Store.Len(),
	}
	if f := s.Cluster.Follower; f != nil {
		st := f.Status()
		info.Leader = st.Leader
		info.LeaderSeq = st.LeaderSeq
		info.Lag = st.Lag
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleClusterSets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.setsPayload())
}

// setsPayload is every annotation this shard stores: GET /cluster/sets,
// and this node's own part of a cluster /matches gather.
func (s *Server) setsPayload() cluster.SetsPayload {
	payload := cluster.SetsPayload{
		Shard: s.Cluster.Self,
		Seq:   s.Store.Seq(),
		Sets:  make(map[string]cluster.StoredSet, s.Store.Len()),
	}
	for _, id := range s.Store.IDs() {
		set, hash, version, ok := s.Store.GetVersioned(id)
		if !ok {
			continue
		}
		payload.Sets[id] = cluster.StoredSet{Hash: hash, Version: version, Examples: set}
	}
	return payload
}

// handleClusterSubstitutes ranks this shard's slice of the candidate set
// against the target's examples (shipped in the body — only the owner
// shard stores them). Candidates run through the same FindSubstitutes
// path the single-node search uses, so each slice carries exactly the
// entries the oracle would have produced for those candidates.
func (s *Server) handleClusterSubstitutes(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "substitute search is not enabled on this server")
		return
	}
	var req cluster.SubstitutesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding substitutes request: %v", err)
		return
	}
	e, ok := s.Registry.Get(req.Target)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown target module %q", req.Target)
		return
	}
	if len(req.Examples) == 0 {
		writeError(w, http.StatusBadRequest, "target %q shipped no examples", req.Target)
		return
	}
	candMods := make([]*module.Module, 0, len(req.Candidates))
	for _, id := range req.Candidates {
		if ce, ok := s.Registry.Get(id); ok {
			candMods = append(candMods, ce.Module)
		}
	}
	target := match.Unavailable{Signature: e.Module, Examples: req.Examples}
	subs, err := s.Comparer.FindSubstitutesContext(r.Context(), target, candMods)
	if err != nil {
		writeError(w, http.StatusBadGateway, "ranking candidates for %s: %v", req.Target, err)
		return
	}
	reply := cluster.SubstitutesReply{Shard: s.Cluster.Self}
	reply.Substitutes, reply.Skipped = substituteEntries(subs.Ranked, subs.Skipped)
	writeJSON(w, http.StatusOK, reply)
}

// scatterSubstitutes is the cluster-mode /modules/{id}/substitutes. It
// answers through the single node's warmedSubstitutes, on the same
// subsKey: the ranking reads only the target's stored set and live
// invocations of candidates chosen from this node's registry and
// signature index, never this shard's store. The target's hash comes
// from the local store (owned) or its owner shard (not owned), where
// the hash of the kept answer is revalidated by one conditional fetch:
// a 304 moves no set, and the kept bytes answer without a scatter. The
// owner is asked warm or cold, so a dead owner fails the request with
// 502 rather than serve a ranking it could not revalidate.
//
// On a miss the candidate catalog is pruned feasibility-first before it
// is partitioned by ring owner. Signatures are catalog metadata every
// node holds, so this node's CatalogIndex prunes exactly the candidates
// each shard's own FindSubstitutes would — candidates that could only
// come back Incomparable, which neither rank nor skip — and only shards
// owning a feasible candidate are contacted (none when no candidate is
// feasible). The merged ranking is byte-identical to the single-node
// search when every contacted shard answers; a failed shard degrades
// the response to a partial ranking flagged as such, which is neither
// validated nor kept, and a dead shard that owns no feasible candidate
// does not degrade it at all.
func (s *Server) scatterSubstitutes(w http.ResponseWriter, r *http.Request, target *module.Module, limit int) {
	id := target.ID
	ctx, span := telemetry.StartSpan(r.Context(), "cluster.substitutes")
	defer span.End()
	span.Annotate("target", id)
	key := s.subsKey("")
	var examples dataexample.Set
	if s.Cluster.Owns(id) {
		set, hash, ok := s.Store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate first)", id)
			return
		}
		key.hash, examples = hash, set
	} else {
		// Only an answer kept at this key's generations can be served
		// after a 304; for any other the set must move.
		held := ""
		if k, ok := memoFor[subsKey, subsAnswer](&s.subs, id).kept(); ok && k.registry == key.registry && k.index == key.index {
			held = k.hash
		}
		ss, changed, err := s.Cluster.Router.FetchExamplesIfChanged(ctx, id, held)
		if err != nil {
			writeError(w, fetchStatus(err), "%v", err)
			return
		}
		key.hash = held
		if changed {
			key.hash, examples = ss.Hash, ss.Examples
		}
	}
	s.warmedSubstitutes(w, r, id, limit, key, func() (substitutesResponse, error) {
		hash := key.hash
		if examples == nil {
			// The owner confirmed the kept hash, but the memo moved on
			// before this request read it: fetch the set after all.
			ss, err := s.Cluster.Router.FetchExamples(ctx, id)
			if err != nil {
				return substitutesResponse{}, err
			}
			hash, examples = ss.Hash, ss.Examples
		}
		var feas *match.Feasibility
		if ix := s.Comparer.Index; ix != nil {
			feas = ix.Feasibility(target, s.Comparer.Mode)
		}
		avail := s.Registry.Available()
		considered := 0
		candidates := make([]string, 0, len(avail))
		for _, m := range avail {
			if m.ID == id {
				continue
			}
			considered++
			if !feas.Prunes(m.ID) {
				candidates = append(candidates, m.ID)
			}
		}
		if span != nil {
			span.Annotate("candidates", strconv.Itoa(considered))
			span.Annotate("feasible", strconv.Itoa(len(candidates)))
			span.Annotate("shards", strings.Join(s.ownersOf(candidates), ","))
		}
		res, err := s.Cluster.Router.Substitutes(ctx, id, hash, examples, candidates)
		if err != nil {
			return substitutesResponse{}, err
		}
		return substitutesResponse{
			Target: id, Hash: hash, Substitutes: res.Substitutes, Skipped: res.Skipped,
			Partial: res.Partial, FailedShards: res.FailedShards,
		}, nil
	})
}

// fetchStatus is the status a failed read of an owner shard answers: the
// owner's 404 passes through, anything else is a 502.
func fetchStatus(err error) int {
	if cluster.IsNotFound(err) {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
}

// ownersOf names, in membership order, the shards that own at least one
// of the modules — the shards a scatter over them contacts.
func (s *Server) ownersOf(ids []string) []string {
	owned := make(map[string]bool)
	for _, id := range ids {
		owned[s.Cluster.Ring.Owner(id)] = true
	}
	var names []string
	for _, sh := range s.Cluster.Config.Shards {
		if owned[sh.Name] {
			names = append(names, sh.Name)
		}
	}
	return names
}

// clusterMatrixSource is the cluster-mode matrixSource. The state round
// (Router.Matrix) reads every shard's replication sequence, this node's
// from its own store, and the state hashes that vector, so an unchanged
// cluster revalidates with one /cluster/info call per other shard and no
// set moves. load gathers the answering shards' sets (Router.Sets), this
// node's read locally, and interns them once into one symbol table; the
// matrix is then built here by the single-node path, so a healthy
// cluster's answer is byte-identical to one node holding the whole
// catalog. A shard that fails either round contributes no
// sets: its modules land in Missing and the answer is partial.
func (s *Server) clusterMatrixSource(ctx context.Context) (*matrixSource, error) {
	rt := s.Cluster.Router
	st, err := rt.Matrix(ctx, cluster.Info{Shard: s.Cluster.Self, Seq: s.Store.Seq()})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(st.StateKey))
	src := &matrixSource{state: hex.EncodeToString(sum[:])[:32], failed: st.FailedShards}
	src.load = func(ctx context.Context) (match.KeyedSource, error) {
		sets, failed, err := rt.Sets(ctx, st.Shards, s.setsPayload())
		if err != nil {
			return nil, err
		}
		for _, sh := range st.Shards {
			if !slices.Contains(failed, sh.Name) {
				src.gathered = append(src.gathered, sh.Name)
			}
		}
		src.failed = append(src.failed, failed...)
		sort.Strings(src.failed)
		src.sets = len(sets)
		tab := dataexample.NewSymbolTable()
		keyed := make(map[string]*dataexample.KeyedSet, len(sets))
		for id, ss := range sets {
			keyed[id] = ss.Examples.KeyedInterned(tab)
		}
		return func(id string) (*dataexample.KeyedSet, bool) {
			set, ok := keyed[id]
			return set, ok
		}, nil
	}
	return src, nil
}

// clusterStats is the /stats cluster block.
type clusterStats struct {
	Role string `json:"role"`
	Self string `json:"self"`
	Seq  uint64 `json:"seq"`
	// Shards carries the health checker's per-shard verdicts (shard role).
	Shards []cluster.ShardHealth `json:"shards,omitempty"`
	// Replication is the follower's tail position (follower role).
	Replication *cluster.FollowerStatus `json:"replication,omitempty"`
	// Summaries is every other shard's search summary as this node holds
	// it, with the state of its watch (shard role).
	Summaries []cluster.HeldSummary `json:"summaries,omitempty"`
}

func (s *Server) clusterStatsBlock() *clusterStats {
	if s.Cluster == nil {
		return nil
	}
	cs := &clusterStats{Role: s.Cluster.Role, Self: s.Cluster.Self, Seq: s.Store.Seq()}
	if s.Cluster.Checker != nil {
		cs.Shards = s.Cluster.Checker.Status()
	}
	if s.clusterMode() {
		cs.Summaries = s.Cluster.Router.HeldSummaries(s.Cluster.Self)
	}
	if s.Cluster.Follower != nil {
		st := s.Cluster.Follower.Status()
		cs.Replication = &st
	}
	return cs
}
