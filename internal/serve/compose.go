package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"dexa/internal/cluster"
	"dexa/internal/compose"
	"dexa/internal/dataexample"
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
// fixed catalog. In cluster mode, example sets for modules owned by
// other shards are fetched from their owners; fetch failures degrade
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
	// Cluster mode only: modules whose example sets could not be fetched
	// from their owner shard — their behavior classes degraded to
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

	_, span := telemetry.StartSpan(r.Context(), "compose.plan")
	span.Annotate("in", in)
	span.Annotate("out", out)
	defer span.End()

	keyed, failed := s.keyedSource(r.Context())
	planner := &compose.Planner{
		Ont:      s.Comparer.Ont,
		Reg:      s.Registry,
		Keyed:    keyed,
		MaxDepth: depth,
		MaxPlans: limit,
	}
	plans, err := planner.Plan(compose.Constraints{
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
	if missed := failed(); len(missed) > 0 {
		resp.Partial = true
		resp.FailedModules = missed
	}
	writeJSON(w, http.StatusOK, resp)
}

// keyedSource builds the planner's keyed-set resolver: the sets the
// local store interned at write time, extended in cluster mode with
// owner-shard fetches for modules this node does not store. The planner
// resolves each module at most once per Plan call, so a remote set is
// fetched and keyed once per request. The second return value reports
// (after planning) which remote fetches failed — those modules planned
// without behavior information rather than failing the whole synthesis.
func (s *Server) keyedSource(ctx context.Context) (compose.KeyedFunc, func() []string) {
	var failed []string
	fn := func(id string) (*dataexample.KeyedSet, bool) {
		if set, _, ok := s.Store.GetKeyed(id); ok {
			return set, true
		}
		if !s.clusterMode() || s.Cluster.Owns(id) {
			return nil, false
		}
		ss, err := s.Cluster.Router.FetchExamples(ctx, id)
		if err != nil {
			if !cluster.IsNotFound(err) {
				failed = append(failed, id)
			}
			return nil, false
		}
		return ss.Examples.Keyed(), true
	}
	report := func() []string {
		sort.Strings(failed)
		return failed
	}
	return fn, report
}
