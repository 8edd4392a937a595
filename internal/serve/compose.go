package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"dexa/internal/compose"
	"dexa/internal/telemetry"
)

// GET /compose — constraint-guided workflow synthesis over the
// annotated catalog:
//
//	?in=      workflow-level input concept (required)
//	?out=     workflow-level output concept (required)
//	?use=     concept that must flow through the plan (repeatable)
//	?avoid=   concept no step parameter may touch (repeatable)
//	?like=    module ID whose stored examples bias the ranking
//	?depth=   maximum chain length in steps (default 4)
//	?limit=   maximum ranked plans returned (default 5)
//
// Each plan chains signature-compatible modules from the input concept
// to the output concept; slots whose candidates are task-identical by
// signature are split into behavior classes by comparing their stored
// data examples, the representative of each class anchors one plan
// variant, and every emitted plan is verified by enacting it on a seed
// example. Plans are ranked verified-first and are deterministic for a
// fixed catalog. Signature groups and behavior classes come from a view
// kept per catalog state (see composeView); only avoid= and like= do
// per-request class work. In cluster mode the view is built from every
// shard's gathered sets, once per cluster state; a failed shard degrades
// the synthesis to a partial one over the reachable annotations.

type composePlan struct {
	Chain     string             `json:"chain"`
	Steps     []compose.PlanStep `json:"steps"`
	Verified  bool               `json:"verified"`
	Witness   map[string]string  `json:"witness,omitempty"`
	Rationale string             `json:"rationale,omitempty"`
	// Workflow is the enactable artifact in the workflow.Save wire
	// format — feed it to dexa-workflow run or POST it elsewhere.
	Workflow json.RawMessage `json:"workflow,omitempty"`
}

type composeResponse struct {
	In    string        `json:"in"`
	Out   string        `json:"out"`
	Plans []composePlan `json:"plans"`
	Count int           `json:"count"`
	// Cluster mode only: modules whose example sets could not be gathered
	// from their failed owner shard — their behavior classes degraded to
	// signature-only grouping.
	Partial       bool     `json:"partial,omitempty"`
	FailedModules []string `json:"failedModules,omitempty"`
}

// multiParam reads a repeatable query parameter, splitting comma lists.
func multiParam(r *http.Request, name string) []string {
	var out []string
	for _, v := range r.URL.Query()[name] {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil || s.Comparer.Ont == nil {
		writeError(w, http.StatusNotImplemented, "workflow synthesis is not enabled on this server")
		return
	}
	in := r.URL.Query().Get("in")
	out := r.URL.Query().Get("out")
	if in == "" || out == "" {
		writeError(w, http.StatusBadRequest, "compose requires both ?in= and ?out= concepts")
		return
	}
	depth := 0
	if v := r.URL.Query().Get("depth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid depth %q", v)
			return
		}
		depth = n
	}
	limit, ok := parseLimitParam(w, r)
	if !ok {
		return
	}

	ctx, span := telemetry.StartSpan(r.Context(), "compose.plan")
	span.Annotate("in", in)
	span.Annotate("out", out)
	defer span.End()

	view, how, failed, err := s.composeView(ctx)
	if err != nil {
		span.Fail(err)
		writeError(w, http.StatusBadGateway, "cluster compose: %v", err)
		return
	}
	span.Annotate("view", how)
	planner := &compose.Planner{
		Ont:      s.Comparer.Ont,
		Reg:      s.Registry,
		View:     view,
		MaxDepth: depth,
		MaxPlans: limit,
	}
	plans, stats, err := planner.PlanStats(compose.Constraints{
		In: in, Out: out,
		MustUse:   multiParam(r, "use"),
		MustAvoid: multiParam(r, "avoid"),
		Like:      r.URL.Query().Get("like"),
		MaxDepth:  depth,
		MaxPlans:  limit,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	span.Annotate("groups", strconv.Itoa(stats.Groups))
	span.Annotate("repartitioned", strconv.Itoa(stats.Repartitioned))
	resp := newComposeResponse(in, out, plans)
	if len(failed) > 0 {
		resp.Partial = true
		resp.FailedModules = failed
	}
	writeJSON(w, http.StatusOK, resp)
}

// newComposeResponse renders plans as the /compose body.
func newComposeResponse(in, out string, plans []compose.Plan) composeResponse {
	resp := composeResponse{In: in, Out: out, Plans: []composePlan{}}
	for _, p := range plans {
		cp := composePlan{
			Chain:     p.Chain(),
			Steps:     p.Steps,
			Verified:  p.Verified,
			Witness:   p.Witness,
			Rationale: p.Rationale,
		}
		if p.Workflow != nil {
			var buf bytes.Buffer
			if err := p.Workflow.Save(&buf); err == nil {
				cp.Workflow = json.RawMessage(buf.Bytes())
			}
		}
		resp.Plans = append(resp.Plans, cp)
	}
	resp.Count = len(resp.Plans)
	return resp
}

// viewCache keeps the planner's behavior-class view for one catalog
// state, the way matrixCache keeps the /matches body: a single node keys
// it on the catalogVersion, a cluster shard also on the shards' state
// key, so any change to availability or to stored sets builds a new one.
type viewCache struct {
	mu   sync.Mutex
	key  viewKey
	view *compose.View
}

type viewKey struct {
	version catalogVersion
	cluster string
}

// composeView returns the view /compose plans over and how it was had:
// "hit" (the cached view of this catalog state), "built" (built and
// cached now) or "uncached" (built from a partial cluster gather and not
// kept). A cluster shard reads the shards' state key every time and
// gathers their sets only on a miss. failed names, sorted, the
// registered modules a partial gather holds no sets for — those owned by
// the failed shards; their behavior classes degrade to signature-only
// grouping.
func (s *Server) composeView(ctx context.Context) (view *compose.View, how string, failed []string, err error) {
	key := viewKey{version: s.catalogVersion()}
	var src *matrixSource
	if s.clusterMode() {
		if src, err = s.clusterMatrixSource(ctx); err != nil {
			return nil, "", nil, err
		}
		key.cluster = src.state
	}
	s.views.mu.Lock()
	defer s.views.mu.Unlock()
	if (src == nil || len(src.failed) == 0) && s.views.view != nil && s.views.key == key {
		return s.views.view, "hit", nil, nil
	}
	keyed := compose.KeyedFunc(s.storeKeyed)
	if src != nil {
		source, err := src.load(ctx)
		if err != nil {
			return nil, "", nil, err
		}
		keyed = compose.KeyedFunc(source)
	}
	view = compose.NewView(s.Comparer.Ont, s.Registry, keyed)
	if src != nil && len(src.failed) > 0 {
		for _, id := range s.Registry.IDs() {
			if slices.Contains(src.failed, s.Cluster.Ring.Owner(id)) {
				failed = append(failed, id)
			}
		}
		return view, "uncached", failed, nil
	}
	s.views.key, s.views.view = key, view
	return view, "built", nil, nil
}
