// Package compose implements the paper's second §8 future-work item:
// data examples guiding module composition. The planner is a
// constraint-guided synthesizer (Lamprecht et al., "Constraint-Guided
// Workflow Composition Based on the EDAM Ontology", applied to the data-
// example-annotated catalog): given an input concept, an output concept
// and constraints, it plans multi-step workflow.Workflow chains by
// backward search over parameter signatures, then uses data-example
// comparison to split task-identical candidates into behavior classes —
// the NW/SW/k-mer aligner trio shares one signature but three behaviors,
// and the planner emits one plan per behavior, not one plan treating them
// as interchangeable. Every plan is checked with workflow.Verify
// (validate + enact on a stored data example), which prunes chains that
// only look compatible on paper (the signature-level false positives
// that §6 shows are common). A View memoises the chains and the verified
// plans, so each is searched and verified once per catalog state (see
// planMemo).
//
// All behavior comparisons run over keyed example sets
// (dataexample.KeyedSet, match.CompareKeyedSets): canonical keys are
// computed once per set — at write time for store-interned sets — and
// never per compared pair.
package compose

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// Constraints scopes a planning request.
type Constraints struct {
	// In and Out are the workflow-level input and output concepts.
	In, Out string
	// MustUse requires every listed concept to flow through some step
	// parameter of the plan; MustAvoid excludes any module with a
	// parameter subsumed by a listed concept.
	MustUse, MustAvoid []string
	// Like prefers plans whose final behavior class agrees most with this
	// module's stored examples (ranking hint, not a filter).
	Like string
	// MaxDepth bounds the number of steps (default 4); MaxPlans the
	// number of ranked plans returned (default 5).
	MaxDepth, MaxPlans int
}

// PlanStep is one slot of a plan: the representative module chosen for
// the step and the behavior-class peers that are interchangeable with it
// (identical signature, data-example-equivalent behavior).
type PlanStep struct {
	Module string `json:"module"`
	// Equivalent lists the other members of the representative's behavior
	// class — swapping any of them in yields the same observed behavior.
	Equivalent []string `json:"equivalent,omitempty"`
	// Class fingerprints the behavior class (see search.Fingerprint);
	// empty when the module has no stored examples.
	Class string `json:"class,omitempty"`
	// Alternatives counts the *distinct* behavior classes sharing this
	// slot's signature: >1 means data examples disambiguated the slot.
	Alternatives int `json:"alternatives,omitempty"`
}

// Plan is one ranked synthesis result. A plan planned over a View may be
// the view's memoised one: its Workflow, Steps and Witness are shared with
// every other request's copy and must be treated as read-only.
type Plan struct {
	Workflow *workflow.Workflow `json:"-"`
	Steps    []PlanStep         `json:"steps"`
	Verified bool               `json:"verified"`
	// Witness carries the workflow-level outputs of the verification
	// enactment, rendered.
	Witness map[string]string `json:"witness,omitempty"`
	// Rationale explains the ranking ("verified", behavior-class choices)
	// or why verification failed.
	Rationale string `json:"rationale,omitempty"`

	rank  int    // tie-break: sum of the slots' class-rank indices, per call
	chain string // the step modules, "a -> b -> c"
	entry *entry // the memoised plan's rendering, shared by its copies
}

// entry is a memoised plan's rendering (see Plan.Rendered), made on
// first use.
type entry struct {
	once sync.Once
	data []byte
	err  error
}

// Chain renders "a -> b -> c".
func (p Plan) Chain() string { return p.chain }

// WorkflowJSON returns the plan's workflow in the workflow.Save wire
// format, or nil when it has none or it fails to render.
func (p Plan) WorkflowJSON() []byte {
	if p.Workflow == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := p.Workflow.Save(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// Rendered returns render(p) and whether the bytes were kept from an
// earlier call. A memoised plan renders once per catalog state and
// shares the bytes with every copy, so every caller must pass the same
// render and must not modify the bytes; any other plan renders per
// call.
func (p Plan) Rendered(render func(Plan) ([]byte, error)) (data []byte, kept bool, err error) {
	if p.entry == nil {
		data, err = render(p)
		return data, false, err
	}
	kept = true
	p.entry.once.Do(func() {
		data, p.entry.err = render(p)
		p.entry.data = bytes.Clone(data) // kept without spare capacity
		kept = false
	})
	return p.entry.data, kept, p.entry.err
}

// ExampleFunc resolves a module's stored data-example set. The CLI backs
// it with an on-demand generator.
type ExampleFunc func(id string) (dataexample.Set, bool)

// KeyedFunc resolves a module's stored data-example set in keyed form.
// The serve layer backs it with the store's write-time interned sets
// (and, in cluster mode, owner-shard fetches keyed once per request).
type KeyedFunc func(id string) (*dataexample.KeyedSet, bool)

// Planner synthesizes workflows from the annotated catalog.
type Planner struct {
	Ont *ontology.Ontology
	Reg *registry.Registry
	// Keyed resolves each module's keyed example set. When nil, the
	// planner keys what Examples returns, once per module per Plan call.
	// Either way the comparisons are the same keyed ones.
	Keyed    KeyedFunc
	Examples ExampleFunc
	// View, when set, is planned over instead of a view built per Plan
	// call from Keyed or Examples (see View).
	View *View
}

// The Constraints defaults, and the search caps keeping the plan space
// bounded on large catalogs.
const (
	defaultMaxDepth   = 4
	defaultMaxPlans   = 5
	maxChains         = 64
	maxCombosPerChain = 16
)

// Stats describes the view work of one Plan call.
type Stats struct {
	// Groups counts the signature groups planned over, after MustAvoid
	// dropped the groups it emptied.
	Groups int
	// Repartitioned counts the groups MustAvoid thinned that the call
	// split into behavior classes anew.
	Repartitioned int
	// ChainsHit reports that the chain search came from the view's memo.
	ChainsHit bool
	// Built counts the plans the call built and verified; Reused the
	// plans it took from the view's memo.
	Built, Reused int
}

// Plan synthesizes ranked workflow plans for the constraints. The result
// is deterministic: identical catalogs and constraints produce identical
// plans in identical order.
func (p *Planner) Plan(cs Constraints) ([]Plan, error) {
	plans, _, err := p.PlanStats(cs)
	return plans, err
}

// PlanStats is Plan, also reporting the call's view work. It plans over
// p.View, or over a fresh view of the catalog when p.View is nil. Over a
// warm view a call only scores classes against Like, filters MustUse,
// ranks and truncates: the chains and the verified plans come from the
// view's memo. A MustAvoid that thins the groups makes the call plan
// over a child view of its own (see View.avoiding), searching and
// verifying afresh.
func (p *Planner) PlanStats(cs Constraints) ([]Plan, Stats, error) {
	if !p.Ont.Has(cs.In) {
		return nil, Stats{}, fmt.Errorf("compose: unknown input concept %q", cs.In)
	}
	if !p.Ont.Has(cs.Out) {
		return nil, Stats{}, fmt.Errorf("compose: unknown output concept %q", cs.Out)
	}
	for _, c := range append(append([]string{}, cs.MustUse...), cs.MustAvoid...) {
		if !p.Ont.Has(c) {
			return nil, Stats{}, fmt.Errorf("compose: unknown constraint concept %q", c)
		}
	}
	if cs.MaxDepth == 0 {
		cs.MaxDepth = defaultMaxDepth
	}
	if cs.MaxPlans == 0 {
		cs.MaxPlans = defaultMaxPlans
	}

	v := p.View
	if v == nil {
		v = NewView(p.Ont, p.Reg, p.keyed())
	}
	v = v.avoiding(cs.MustAvoid)
	st := Stats{Groups: len(v.groups)}
	// A chain never repeats a group, so depths past len(groups) search
	// alike and share one entry.
	var chains [][]*sigGroup
	chains, st.ChainsHit = v.memo.chainsFor(chainKey{cs.In, cs.Out, min(cs.MaxDepth, len(v.groups))},
		func() [][]*sigGroup { return p.findChains(cs, v.groups) })

	var sc match.CompareScratch
	var like *module.Module
	var likeSet *dataexample.KeyedSet
	if e, ok := p.Reg.Get(cs.Like); ok {
		like, likeSet = e.Module, v.set(cs.Like)
	}
	var scored map[*sigGroup][]*behaviorClass // like= order of each chain group, per call
	if likeSet != nil {
		scored = map[*sigGroup][]*behaviorClass{}
	}

	var plans []Plan
	for _, chain := range chains {
		slots := make([][]*behaviorClass, len(chain))
		for i, g := range chain {
			slots[i] = v.classesOf(g, &sc)
			if scored != nil {
				if _, ok := scored[g]; !ok {
					scored[g] = v.liked(slots[i], like, likeSet, &sc)
				}
				slots[i] = scored[g]
			}
		}
		plans = p.expand(plans, cs, slots, v.memo, &st)
	}
	for _, g := range v.groups {
		if g.thinned && g.classes != nil {
			st.Repartitioned++
		}
	}
	plans = p.filterMustUse(cs, plans)

	sort.SliceStable(plans, func(i, j int) bool {
		a, b := plans[i], plans[j]
		if a.Verified != b.Verified {
			return a.Verified
		}
		if len(a.Steps) != len(b.Steps) {
			return len(a.Steps) < len(b.Steps)
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.Chain() < b.Chain()
	})
	if len(plans) > cs.MaxPlans {
		plans = plans[:cs.MaxPlans]
	}
	return plans, st, nil
}

// keyed is the resolver a per-call view reads sets through: Keyed, or
// Examples keyed on the fly.
func (p *Planner) keyed() KeyedFunc {
	if p.Keyed != nil || p.Examples == nil {
		return p.Keyed
	}
	return func(id string) (*dataexample.KeyedSet, bool) {
		raw, _ := p.Examples(id)
		if len(raw) == 0 {
			return nil, false
		}
		return raw.Keyed(), true
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// findChains runs the backward search: starting from the Out concept,
// repeatedly prepend a signature group whose output satisfies the current
// goal, until a group's input accepts the In concept.
func (p *Planner) findChains(cs Constraints, groups []*sigGroup) [][]*sigGroup {
	var chains [][]*sigGroup
	var rec func(goalSem string, goalStruct *typesys.Type, acc []*sigGroup)
	rec = func(goalSem string, goalStruct *typesys.Type, acc []*sigGroup) {
		if len(chains) >= maxChains {
			return
		}
		for _, g := range groups {
			if !p.Ont.Subsumes(goalSem, g.outSem) {
				continue
			}
			if goalStruct != nil && !g.outStruct.Equal(*goalStruct) {
				continue
			}
			if containsGroup(acc, g) {
				continue
			}
			next := append([]*sigGroup{g}, acc...)
			if p.Ont.Subsumes(g.inSem, cs.In) {
				chains = append(chains, next)
				if len(chains) >= maxChains {
					return
				}
			}
			if len(next) < cs.MaxDepth {
				st := g.inStruct
				rec(g.inSem, &st, next)
			}
		}
	}
	rec(cs.Out, nil, nil)
	return chains
}

func containsGroup(acc []*sigGroup, g *sigGroup) bool {
	for _, a := range acc {
		if a == g {
			return true
		}
	}
	return false
}

// expand appends one signature chain's concrete plans to plans: the
// cartesian product of behavior classes across slots, enumerated in
// ranked order and capped, each taken from memo or built into a workflow
// and verified.
func (p *Planner) expand(plans []Plan, cs Constraints, slots [][]*behaviorClass, memo *planMemo, st *Stats) []Plan {
	k := len(slots)
	idx := make([]int, k)
	limit := len(plans) + maxCombosPerChain
	var rec func(slot int)
	rec = func(slot int) {
		if len(plans) >= limit {
			return
		}
		if slot == k {
			plans = append(plans, p.planFor(cs, slots, idx, memo, st))
			return
		}
		for i := range slots[slot] {
			idx[slot] = i
			rec(slot + 1)
			if len(plans) >= limit {
				return
			}
		}
	}
	rec(0)
	return plans
}

// planFor returns the plan of the classes idx picks from slots: memo's,
// or built now and offered to memo. The rank is the call's own, since
// like= reorders the slots.
func (p *Planner) planFor(cs Constraints, slots [][]*behaviorClass, idx []int, memo *planMemo, st *Stats) Plan {
	var buf [128]byte
	key := planKey(buf[:0], cs, slots, idx)
	plan, hit := memo.plan(key)
	if hit {
		st.Reused++
	} else {
		var keep bool
		plan, keep = p.build(cs, slots, idx)
		st.Built++
		if keep {
			plan = memo.keep(key, plan)
		}
	}
	plan.rank = sum(idx)
	return plan
}

// smallestExample picks the deterministic seed example of a set: the one
// with the lexicographically smallest input key.
func smallestExample(set *dataexample.KeyedSet) (dataexample.Example, bool) {
	if set == nil {
		return dataexample.Example{}, false
	}
	best := 0
	for i := 1; i < set.Len(); i++ {
		if set.InputKey(i) < set.InputKey(best) {
			best = i
		}
	}
	return set.Example(best), true
}

// build constructs and verifies the workflow for one class combination.
// keep reports whether the plan is decided by the catalog state, so a
// memo may hold it: every plan but one whose verification failed in
// enactment with all inputs filled.
func (p *Planner) build(cs Constraints, slots [][]*behaviorClass, idx []int) (plan Plan, keep bool) {
	k := len(idx)
	reps := make([]*module.Module, k)
	classes := make([]*behaviorClass, k)
	for i := 0; i < k; i++ {
		classes[i] = slots[i][idx[i]]
		reps[i] = classes[i].rep
	}

	ids := make([]string, k)
	for i, m := range reps {
		ids[i] = m.ID
	}
	wf := &workflow.Workflow{
		ID:   "plan-" + strings.Join(ids, "--"),
		Name: fmt.Sprintf("%s to %s via %s", cs.In, cs.Out, strings.Join(ids, ", ")),
		Inputs: []workflow.Port{
			{Name: "in", Struct: primaryInput(reps[0]).Struct, Semantic: cs.In},
		},
		Outputs: []workflow.Port{
			{Name: "out", Struct: primaryOutput(reps[k-1]).Struct, Semantic: cs.Out},
		},
		Steps: make([]workflow.Step, 0, k),
		Links: make([]workflow.Link, 0, k+1),
	}
	var missing []string
	for i, m := range reps {
		step := workflow.Step{ID: fmt.Sprintf("s%d", i+1), ModuleID: m.ID}
		// Secondary required inputs are pinned as design-time constants
		// taken from the module's own stored examples — the values the
		// annotation run proved the module accepts.
		ex, hasEx := smallestExample(classes[i].repSet)
		for _, param := range m.Inputs[1:] {
			if param.Optional {
				continue
			}
			if v, ok := ex.Inputs[param.Name]; hasEx && ok {
				if step.Constants == nil {
					step.Constants = map[string]typesys.Value{}
				}
				step.Constants[param.Name] = v
			} else {
				missing = append(missing, fmt.Sprintf("s%d.%s", i+1, param.Name))
			}
		}
		wf.Steps = append(wf.Steps, step)
	}
	for i := 0; i < k; i++ {
		from := workflow.PortRef{Port: "in"}
		if i > 0 {
			from = workflow.PortRef{Step: fmt.Sprintf("s%d", i), Port: primaryOutput(reps[i-1]).Name}
		}
		wf.Links = append(wf.Links, workflow.Link{
			From: from,
			To:   workflow.PortRef{Step: fmt.Sprintf("s%d", i+1), Port: primaryInput(reps[i]).Name},
		})
	}
	wf.Links = append(wf.Links, workflow.Link{
		From: workflow.PortRef{Step: fmt.Sprintf("s%d", k), Port: primaryOutput(reps[k-1]).Name},
		To:   workflow.PortRef{Port: "out"},
	})

	plan = Plan{Workflow: wf, Steps: make([]PlanStep, 0, k), chain: strings.Join(ids, " -> ")}
	for i, m := range reps {
		ps := PlanStep{Module: m.ID, Class: classes[i].class, Alternatives: len(slots[i])}
		for _, peer := range classes[i].members[1:] {
			ps.Equivalent = append(ps.Equivalent, peer.ID)
		}
		plan.Steps = append(plan.Steps, ps)
	}

	var rationale []string
	for i := range reps {
		if len(slots[i]) > 1 {
			rationale = append(rationale, fmt.Sprintf(
				"step s%d: %d behavior classes share signature %s; examples chose %s (%d equivalent)",
				i+1, len(slots[i]), chainSig(classes[i].rep), reps[i].ID, len(classes[i].members)))
		}
	}
	if len(missing) > 0 {
		rationale = append(rationale, "unfillable inputs: "+strings.Join(missing, ", "))
	}

	// Verify: enact on the first step's stored seed example.
	seed, ok := smallestExample(classes[0].repSet)
	if !ok {
		plan.Rationale = strings.Join(append(rationale, "unverified: no stored examples for "+reps[0].ID), "; ")
		return plan, true
	}
	inputs := map[string]typesys.Value{"in": seed.Inputs[primaryInput(reps[0]).Name]}
	outs, err := workflow.Verify(p.Reg, p.Ont, wf, inputs)
	if err != nil {
		plan.Rationale = strings.Join(append(rationale, "unverified: "+err.Error()), "; ")
		var enact *workflow.EnactError
		return plan, len(missing) > 0 || !errors.As(err, &enact)
	}
	plan.Verified = true
	plan.Witness = map[string]string{}
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		plan.Witness[name] = truncateValue(outs[name], 80)
	}
	plan.Rationale = strings.Join(append(rationale, "verified by enactment on a stored data example"), "; ")
	return plan, true
}

func chainSig(m *module.Module) string {
	return primaryInput(m).Semantic + "->" + primaryOutput(m).Semantic
}

// filterMustUse keeps plans where every MustUse concept is carried by
// some step parameter.
func (p *Planner) filterMustUse(cs Constraints, plans []Plan) []Plan {
	if len(cs.MustUse) == 0 {
		return plans
	}
	var out []Plan
	for _, plan := range plans {
		ok := true
		for _, use := range cs.MustUse {
			if !p.planUses(plan, use) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, plan)
		}
	}
	return out
}

func (p *Planner) planUses(plan Plan, concept string) bool {
	for _, s := range plan.Steps {
		if e, ok := p.Reg.Get(s.Module); ok && carries(p.Ont, e.Module, concept) {
			return true
		}
	}
	return false
}

// primaryInput and primaryOutput are a module's data-carrying ports:
// its first input and its first output.
func primaryInput(m *module.Module) module.Parameter { return m.Inputs[0] }

func primaryOutput(m *module.Module) module.Parameter { return m.Outputs[0] }

func truncateValue(v typesys.Value, n int) string {
	s := v.String()
	s = strings.ReplaceAll(s, "\n", "\\n")
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
