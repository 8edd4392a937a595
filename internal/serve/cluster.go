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
//	POST /cluster/search      — rank this shard's hits, or resolve behaves: anchors
//
// and changes how the public query routes answer: /modules/{id}/substitutes
// and /search scatter-gather across the ring through the cluster Router,
// and /matches gathers every shard's sets and builds the matrix locally
// (answers are byte-identical to a single node holding the whole
// catalog; failed shards degrade the response to a partial one instead
// of failing it), while /examples and /generate for a module another
// shard owns answer 307 to the owner. A follower node mounts
// /cluster/info only and serves its replicated slice read-only.

func (s *Server) clusterRoutes() []route {
	rts := []route{
		{http.MethodGet, "/cluster/info", s.handleClusterInfo},
	}
	if s.Cluster.Role == cluster.RoleShard {
		rts = append(rts,
			route{http.MethodGet, "/cluster/sets", s.handleClusterSets},
			route{http.MethodPost, "/cluster/substitutes", s.handleClusterSubstitutes},
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
	writeJSON(w, http.StatusOK, payload)
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

// scatterSubstitutes is the cluster-mode /modules/{id}/substitutes: the
// target's examples come from the local store (owned) or the owner shard
// (not owned), and the candidate catalog is pruned feasibility-first
// before it is partitioned by ring owner. Signatures are catalog
// metadata every node holds, so this node's CatalogIndex prunes exactly
// the candidates each shard's own FindSubstitutes would — candidates
// that could only come back Incomparable, which neither rank nor skip —
// and only shards owning a feasible candidate are contacted (none when
// no candidate is feasible). The merged ranking is byte-identical to the
// single-node search when every contacted shard answers; a failed shard
// degrades the response to a partial ranking flagged as such, and a
// dead shard that owns no feasible candidate does not degrade it at all.
func (s *Server) scatterSubstitutes(w http.ResponseWriter, r *http.Request, target *module.Module, limit int) {
	id := target.ID
	ctx, span := telemetry.StartSpan(r.Context(), "cluster.substitutes")
	defer span.End()
	span.Annotate("target", id)
	var (
		hash     string
		examples dataexample.Set
	)
	if s.Cluster.Owns(id) {
		set, h, ok := s.Store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no stored examples for module %q (POST .../generate first)", id)
			return
		}
		hash, examples = h, set
	} else {
		ss, err := s.Cluster.Router.FetchExamples(ctx, id)
		if err != nil {
			status := http.StatusBadGateway
			if cluster.IsNotFound(err) {
				status = http.StatusNotFound
			}
			writeError(w, status, "%v", err)
			return
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
		writeError(w, http.StatusBadGateway, "cluster substitute search for %s: %v", id, err)
		return
	}
	ranked := res.Substitutes
	if limit > 0 && len(ranked) > limit {
		ranked = ranked[:limit]
	}
	writeJSON(w, http.StatusOK, substitutesResponse{
		Target: id, Hash: hash, Substitutes: ranked, Skipped: res.Skipped,
		Partial: res.Partial, FailedShards: res.FailedShards,
	})
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
// (Router.Matrix) reads every shard's replication sequence and the state
// hashes that vector, so an unchanged cluster revalidates with one
// /cluster/info call per shard and no set moves. load gathers the
// answering shards' sets (Router.Sets) and interns them once into one
// symbol table; the matrix is then built here by the single-node path,
// so a healthy cluster's answer is byte-identical to one node holding
// the whole catalog. A shard that fails either round contributes no
// sets: its modules land in Missing and the answer is partial.
func (s *Server) clusterMatrixSource(ctx context.Context) (*matrixSource, error) {
	rt := s.Cluster.Router
	st, err := rt.Matrix(ctx)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(st.StateKey))
	src := &matrixSource{state: hex.EncodeToString(sum[:])[:32], failed: st.FailedShards}
	src.load = func(ctx context.Context) (match.KeyedSource, error) {
		sets, failed, err := rt.Sets(ctx, st.Shards)
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
}

func (s *Server) clusterStatsBlock() *clusterStats {
	if s.Cluster == nil {
		return nil
	}
	cs := &clusterStats{Role: s.Cluster.Role, Self: s.Cluster.Self, Seq: s.Store.Seq()}
	if s.Cluster.Checker != nil {
		cs.Shards = s.Cluster.Checker.Status()
	}
	if s.Cluster.Follower != nil {
		st := s.Cluster.Follower.Status()
		cs.Replication = &st
	}
	return cs
}
