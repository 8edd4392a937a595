package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"slices"
	"sort"
	"strings"

	"dexa/internal/cluster"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
)

// Cluster endpoints and behaviour, active only when Server.Cluster is
// set. A shard node mounts the intra-cluster API:
//
//	GET  /cluster/info        — this node's identity and replication seq
//	GET  /cluster/sets        — every annotation this shard stores
//	GET  /cluster/summary     — this shard's index nonce and generation and the
//	                            examples and behavior class of every module it
//	                            owns; ETag = "<nonce>.<generation>",
//	                            If-None-Match answers 304
//	GET  /cluster/summary?wait= — the same as a long-poll: a current
//	                            If-None-Match parks until the index moves or
//	                            the wait ends (304); 503 once draining
//	POST /cluster/substitutes — rank a candidate slice against shipped
//	                            examples (replay only: Router.Substitutes'
//	                            scatter)
//	POST /cluster/search      — rank this shard's hits, or resolve behaves:
//	                            anchors (replay only: Router.Search's
//	                            scatter)
//
// and changes how the public query routes answer. Every node holds the
// whole registry, its executors and the signature index, so no public
// query scatters. /modules/{id}/substitutes ranks on the receiving
// shard; only a target another shard owns has its examples read from
// the owner, by one conditional fetch that a warm answer's 304 settles.
// /search answers from this node's index over the other shards'
// summaries (held current by one long-poll per shard, called for while
// a shard's watch is down). /matches gathers every other shard's sets
// and builds the matrix locally; a failed shard degrades it to a partial
// answer instead of failing it. Healthy answers are byte-identical to a
// single node holding the whole catalog. /examples and /generate for a
// module another shard owns answer 307 to the owner. A follower node
// mounts /cluster/info only and serves its replicated slice read-only.

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

// clusterMode reports whether public queries read other shards: only
// shard nodes route; followers answer from their replicated slice.
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
	loc := strings.TrimSuffix(base, "/") + cluster.APIPrefix + r.URL.Path
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

// handleClusterSubstitutes is the shard side of Router.Substitutes'
// scatter (POST /cluster/substitutes), which only e2ebench's traced
// replay still makes. It ranks this shard's slice of the candidate set
// against the target's examples shipped in the body, through the same
// FindSubstitutes path the public /substitutes uses.
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

// ownerExamples is the one step of /substitutes that is a shard's own,
// for a target another shard owns: it returns the key the answer is kept
// at and, when the set moved, the set. Only an answer kept at this key's
// registry and index states can be served after a 304, so only its hash
// is sent to the owner as a validator; for any other the set must move.
// A 304 moves no set, and the kept bytes answer. The owner is asked warm
// or cold, so a dead owner fails the request with 502 rather than serve
// a ranking it could not revalidate.
func (s *Server) ownerExamples(w http.ResponseWriter, r *http.Request, id string) (subsKey, dataexample.Set, bool) {
	key := s.subsKey("")
	if k, ok := memoFor[subsKey, subsAnswer](&s.subs, id).kept(); ok {
		if key.hash = k.hash; k != key {
			key.hash = ""
		}
	}
	ss, changed, err := s.Cluster.Router.FetchExamplesIfChanged(r.Context(), id, key.hash)
	if err != nil {
		writeError(w, fetchStatus(err), "%v", err)
		return subsKey{}, nil, false
	}
	var set dataexample.Set
	if changed {
		key.hash, set = ss.Hash, ss.Examples
	}
	return key, set, true
}

// fetchStatus is the status a failed read of an owner shard answers: the
// owner's 404 passes through, anything else is a 502.
func fetchStatus(err error) int {
	if cluster.IsNotFound(err) {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
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
	// Shards carries every member's health verdict, as the summary watch
	// judges it (shard role).
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
	if s.clusterMode() {
		cs.Shards = s.Cluster.Router.Status()
		cs.Summaries = s.Cluster.Router.HeldSummaries(s.Cluster.Self)
	}
	if s.Cluster.Follower != nil {
		st := s.Cluster.Follower.Status()
		cs.Replication = &st
	}
	return cs
}
