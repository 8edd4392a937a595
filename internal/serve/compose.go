package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

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
// fixed catalog. Signature groups, behavior classes, chains and verified
// plans come from a view memoised per catalog state (see composeView and
// compose.View); a warm request only scores like=, filters use=, ranks
// and splices the plans' kept entries into the body (see composeBody),
// and only an avoid= that thins the groups searches, verifies and
// renders afresh. In cluster mode the view is built from every
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
func multiParam(q url.Values, name string) []string {
	var out []string
	for _, v := range q[name] {
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
	q := r.URL.Query()
	in, out := q.Get("in"), q.Get("out")
	if in == "" || out == "" {
		writeError(w, http.StatusBadRequest, "compose requires both ?in= and ?out= concepts")
		return
	}
	depth := 0
	if v := q.Get("depth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid depth %q", v)
			return
		}
		depth = n
	}
	limit, ok := parseLimitParam(w, q)
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
	planner := &compose.Planner{Ont: s.Comparer.Ont, Reg: s.Registry, View: view}
	plans, stats, err := planner.PlanStats(compose.Constraints{
		In: in, Out: out,
		MustUse:   multiParam(q, "use"),
		MustAvoid: multiParam(q, "avoid"),
		Like:      q.Get("like"),
		MaxDepth:  depth,
		MaxPlans:  limit,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	span.Annotate("groups", strconv.Itoa(stats.Groups))
	span.Annotate("repartitioned", strconv.Itoa(stats.Repartitioned))
	chains := "built"
	if stats.ChainsHit {
		chains = "hit"
	}
	span.Annotate("chains", chains)
	span.Annotate("plans", strconv.Itoa(stats.Reused)+"/"+strconv.Itoa(stats.Built))
	body, kept, err := composeBody(in, out, plans, failed)
	if err != nil {
		span.Fail(err)
		writeError(w, http.StatusInternalServerError, "encoding compose response: %v", err)
		return
	}
	span.Annotate("entries", strconv.Itoa(kept)+"/"+strconv.Itoa(len(plans)-kept))
	respond(w, http.StatusOK, answer{body: body})
}

// renderComposePlan renders p as its /compose entry: the composePlan
// object byte for byte as encodeJSONBody renders it inside a
// composeResponse. A memoised plan keeps the entry (see
// compose.Plan.Rendered), so its workflow is saved, compacted and
// re-indented once per catalog state.
func renderComposePlan(p compose.Plan) ([]byte, error) {
	return encodeEntry(composePlan{
		Chain:     p.Chain(),
		Steps:     p.Steps,
		Verified:  p.Verified,
		Witness:   p.Witness,
		Rationale: p.Rationale,
		Workflow:  p.WorkflowJSON(),
	}, 1)
}

// composeBody renders the /compose body of plans, byte for byte as
// encodeJSONBody renders their composeResponse, and counts the plans
// whose entries were kept: it encodes the envelope around an empty plan
// list and splices each plan's entry in between its brackets. failed,
// when not empty, marks the answer partial.
func composeBody(in, out string, plans []compose.Plan, failed []string) (body []byte, kept int, err error) {
	entries := make([][]byte, len(plans))
	for i, p := range plans {
		var hit bool
		if entries[i], hit, err = p.Rendered(renderComposePlan); err != nil {
			return nil, 0, fmt.Errorf("plan %s: %w", p.Chain(), err)
		}
		if hit {
			kept++
		}
	}
	skel, err := encodeJSONBody(composeResponse{
		In: in, Out: out, Plans: []composePlan{}, Count: len(plans),
		Partial: len(failed) > 0, FailedModules: failed,
	})
	if err != nil {
		return nil, 0, err
	}
	return splice(skel, "plans", 1, entries), kept, nil
}

// viewKey is the catalog state a /compose view reflects: the
// catalogVersion, and on a cluster shard also the shards' state key.
type viewKey struct {
	version catalogVersion
	cluster string
}

// composeView returns the view /compose plans over and how it was had:
// "hit" (the memoised view of this catalog state), "built" (built and
// kept now) or "uncached" (built from a partial cluster gather and not
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
	// As for /matches, a partial state round's key never equals a kept
	// view's.
	view, hit, err := s.view.get(key, func() (*compose.View, bool, error) {
		keyed := compose.KeyedFunc(s.storeKeyed)
		if src != nil {
			source, err := src.load(ctx)
			if err != nil {
				return nil, false, err
			}
			keyed = compose.KeyedFunc(source)
		}
		return compose.NewView(s.Comparer.Ont, s.Registry, keyed), src == nil || len(src.failed) == 0, nil
	})
	switch {
	case err != nil:
		return nil, "", nil, err
	case hit:
		return view, "hit", nil, nil
	case src == nil || len(src.failed) == 0:
		return view, "built", nil, nil
	}
	for _, id := range s.Registry.IDs() {
		if slices.Contains(src.failed, s.Cluster.Ring.Owner(id)) {
			failed = append(failed, id)
		}
	}
	return view, "uncached", failed, nil
}
