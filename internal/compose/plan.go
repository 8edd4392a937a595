package compose

import (
	"fmt"
	"sort"
	"strings"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// The constraint-guided synthesizer (Lamprecht et al., "Constraint-Guided
// Workflow Composition Based on the EDAM Ontology", applied to the data-
// example-annotated catalog): given an input concept, an output concept
// and constraints, plan multi-step workflow.Workflow chains by backward
// search over parameter signatures, then use data-example comparison to
// split task-identical candidates into behavior classes — the NW/SW/k-mer
// aligner trio shares one signature but three behaviors, and the planner
// emits one plan per behavior, not one plan treating them as
// interchangeable. Every plan is checked with workflow.Verify (validate +
// enact on a stored data example).
//
// All behavior comparisons run over keyed example sets
// (dataexample.KeyedSet, match.CompareKeyedSets): canonical keys are
// computed once per set — at write time for store-interned sets — and
// never per compared pair.

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

// Plan is one ranked synthesis result.
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

	rank []int // tie-break vector: slot class-rank indices
}

// Chain renders "a -> b -> c".
func (p Plan) Chain() string {
	ids := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		ids[i] = s.Module
	}
	return strings.Join(ids, " -> ")
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
	// MaxDepth bounds chain length in steps (default 4); MaxPlans the
	// ranked plans returned (default 5).
	MaxDepth int
	MaxPlans int
}

// Search caps keeping the plan space bounded on large catalogs.
const (
	maxChains         = 64
	maxCombosPerChain = 16
)

func (p *Planner) maxDepth() int {
	if p.MaxDepth > 0 {
		return p.MaxDepth
	}
	return 4
}

func (p *Planner) maxPlans() int {
	if p.MaxPlans > 0 {
		return p.MaxPlans
	}
	return 5
}

// Stats describes the view work of one Plan call.
type Stats struct {
	// Groups counts the signature groups planned over, after MustAvoid
	// dropped the groups it emptied.
	Groups int
	// Repartitioned counts the groups MustAvoid thinned that the call
	// split into behavior classes anew.
	Repartitioned int
}

// Plan synthesizes ranked workflow plans for the constraints. The result
// is deterministic: identical catalogs and constraints produce identical
// plans in identical order.
func (p *Planner) Plan(cs Constraints) ([]Plan, error) {
	plans, _, err := p.PlanStats(cs)
	return plans, err
}

// PlanStats is Plan, also reporting the call's view work. It plans over
// p.View, or over a fresh view of the catalog when p.View is nil. Per
// call it only drops MustAvoid modules, scores classes against Like, and
// searches and expands chains.
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
		cs.MaxDepth = p.maxDepth()
	}
	if cs.MaxPlans == 0 {
		cs.MaxPlans = p.maxPlans()
	}

	v := p.View
	if v == nil {
		v = NewView(p.Ont, p.Reg, p.keyed())
	}
	groups := v.avoiding(cs.MustAvoid)
	chains := p.findChains(cs, groups)

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
		plans = append(plans, p.expand(cs, chain, slots)...)
	}
	st := Stats{Groups: len(groups)}
	for _, g := range groups {
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
		if ra, rb := sum(a.rank), sum(b.rank); ra != rb {
			return ra < rb
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

// expand turns one signature chain into concrete plans: the cartesian
// product of behavior classes across slots, enumerated in ranked order
// and capped, each built into a workflow and verified.
func (p *Planner) expand(cs Constraints, chain []*sigGroup, slots [][]*behaviorClass) []Plan {
	k := len(chain)
	idx := make([]int, k)
	var plans []Plan
	var rec func(slot int)
	rec = func(slot int) {
		if len(plans) >= maxCombosPerChain {
			return
		}
		if slot == k {
			plans = append(plans, p.build(cs, slots, idx))
			return
		}
		for i := range slots[slot] {
			idx[slot] = i
			rec(slot + 1)
			if len(plans) >= maxCombosPerChain {
				return
			}
		}
	}
	rec(0)
	return plans
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
func (p *Planner) build(cs Constraints, slots [][]*behaviorClass, idx []int) Plan {
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

	plan := Plan{Workflow: wf, rank: append([]int{}, idx...)}
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
		return plan
	}
	inputs := map[string]typesys.Value{"in": seed.Inputs[primaryInput(reps[0]).Name]}
	outs, err := workflow.Verify(p.Reg, p.Ont, wf, inputs)
	if err != nil {
		plan.Rationale = strings.Join(append(rationale, "unverified: "+err.Error()), "; ")
		return plan
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
	return plan
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
