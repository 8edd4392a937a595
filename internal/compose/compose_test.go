package compose

import (
	"strings"
	"testing"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/instances"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/search"
	"dexa/internal/simulation"
	"dexa/internal/typesys"
)

// stringModule is a one-string-in, one-string-out module from in to out.
func stringModule(id, in, out string, fn func(string) (string, error)) *module.Module {
	m := &module.Module{
		ID: id, Name: id,
		Inputs:  []module.Parameter{{Name: "in", Struct: typesys.StringType, Semantic: in}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: out}},
	}
	m.Bind(module.ExecFunc(func(vals map[string]typesys.Value) (map[string]typesys.Value, error) {
		s, err := fn(string(vals["in"].(typesys.StringValue)))
		if err != nil {
			return nil, err
		}
		return map[string]typesys.Value{"out": typesys.Str(s)}, nil
	}))
	return m
}

// small fixture: concepts A -> B -> C with modules a2b, b2c, a2c-broken.
func smallFixture(t *testing.T) (*ontology.Ontology, *instances.Pool, []*module.Module) {
	t.Helper()
	ont := ontology.New("t")
	ont.MustAddConcept("Root", "")
	for _, c := range []string{"A", "B", "C"} {
		ont.MustAddConcept(c, "", "Root")
	}
	pool := instances.NewPool(ont)
	pool.MustAdd("A", typesys.Str("a-value"), "")
	pool.MustAdd("B", typesys.Str("b-value"), "")

	ok := func(s string) (string, error) { return s + "+", nil }
	bad := func(string) (string, error) { return "", module.ErrRejectedInput }
	mods := []*module.Module{
		stringModule("a2b", "A", "B", ok),
		stringModule("b2c", "B", "C", ok),
		stringModule("a2c-broken", "A", "C", bad), // signature-compatible but always fails
	}
	return ont, pool, mods
}

// fixturePlanner plans over mods, each annotated with the examples the
// heuristic generates from pool.
func fixturePlanner(ont *ontology.Ontology, pool *instances.Pool, mods []*module.Module) *Planner {
	reg := registry.New()
	for _, m := range mods {
		reg.MustRegister(m)
	}
	gen := core.NewGenerator(ont, pool)
	return &Planner{Ont: ont, Reg: reg, Examples: func(id string) (dataexample.Set, bool) {
		e, _ := reg.Get(id)
		set, _, err := gen.Generate(e.Module)
		return set, err == nil && len(set) > 0
	}}
}

func TestPlanVerifiedOutranksBroken(t *testing.T) {
	p := fixturePlanner(smallFixture(t))
	plans, err := p.Plan(Constraints{In: "A", Out: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("plans = %v", plans)
	}
	// The verified two-step plan must outrank the broken one-step plan.
	if !plans[0].Verified || plans[0].Chain() != "a2b -> b2c" {
		t.Errorf("top plan = %s (verified %v)", plans[0].Chain(), plans[0].Verified)
	}
	var broken *Plan
	for i := range plans {
		if plans[i].Chain() == "a2c-broken" {
			broken = &plans[i]
		}
	}
	if broken == nil {
		t.Fatal("broken plan should still be listed (unverified)")
	}
	if broken.Verified {
		t.Error("broken plan must not verify")
	}
	if w := plans[0].Witness["out"]; !strings.Contains(w, "a-value++") {
		t.Errorf("witness = %v, want the seed through both steps", plans[0].Witness)
	}
}

func TestPlanUnknownConcepts(t *testing.T) {
	p := fixturePlanner(smallFixture(t))
	if _, err := p.Plan(Constraints{In: "Nope", Out: "C"}); err == nil {
		t.Error("unknown input concept should fail")
	}
	if _, err := p.Plan(Constraints{In: "A", Out: "Nope"}); err == nil {
		t.Error("unknown output concept should fail")
	}
}

func TestPlanRespectsLimits(t *testing.T) {
	p := fixturePlanner(smallFixture(t))
	plans, err := p.Plan(Constraints{In: "A", Out: "C", MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no one-step plan")
	}
	for _, plan := range plans {
		if len(plan.Steps) > 1 {
			t.Errorf("depth limit violated: %s", plan.Chain())
		}
	}
	plans, err = p.Plan(Constraints{In: "A", Out: "C", MaxDepth: 3, MaxPlans: 1})
	if err != nil || len(plans) != 1 {
		t.Errorf("MaxPlans violated: %d plans, %v", len(plans), err)
	}
}

func TestPlanGoalSubsumption(t *testing.T) {
	// An output concept that subsumes the produced concept is reachable.
	ont, pool, mods := smallFixture(t)
	ont.MustAddConcept("SuperC", "", "Root")
	if err := ont.AddSubsumption("C", "SuperC"); err != nil {
		t.Fatal(err)
	}
	plans, err := fixturePlanner(ont, pool, mods).Plan(Constraints{In: "A", Out: "SuperC"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || !plans[0].Verified {
		t.Errorf("plans = %v", plans)
	}
}

// TestComposeOverUniverse plans on the full catalog from a DNA sequence
// to a KEGG pathway identifier — a realistic design question (translate,
// digest, identify, then map).
func TestComposeOverUniverse(t *testing.T) {
	u := simulation.NewUniverse()
	gen := core.NewCachedGenerator(u.Gen)
	p := &Planner{Ont: u.Ont, Reg: u.Registry, Examples: func(id string) (dataexample.Set, bool) {
		e, _ := u.Registry.Get(id)
		set, _, err := gen.Generate(e.Module)
		return set, err == nil && len(set) > 0
	}}
	plans, err := p.Plan(Constraints{In: simulation.CDNASequence, Out: simulation.CKEGGPathwayID})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans over the universe")
	}
	if !plans[0].Verified {
		t.Errorf("top plan %s not verified: %s", plans[0].Chain(), plans[0].Rationale)
	}
	// Every verified plan must end in a pathway-producing module.
	for _, plan := range plans {
		if !plan.Verified {
			continue
		}
		e, _ := u.Registry.Get(plan.Steps[len(plan.Steps)-1].Module)
		if !u.Ont.Subsumes(simulation.CKEGGPathwayID, e.Module.Outputs[0].Semantic) {
			t.Errorf("plan %s does not end at the goal", plan.Chain())
		}
	}
}

// TestAvoidChildViewSharesClassIDs plans two avoid= requests over one
// shared view. Avoiding Note thins the A->B2 group, whose thinned copy
// then shares the second slot's B->C group with the whole A->B group, so
// the two chains differ only in the first slot's class. The child view
// each request plans over numbers its classes from the parent's counter.
// The first request partitions the parent's whole groups; if the second
// request's child numbered its classes from a counter of its own, its
// thinned class would take the whole A->B class's id, and its second
// chain would be served the first chain's plan.
func TestAvoidChildViewSharesClassIDs(t *testing.T) {
	ont := ontology.New("t")
	ont.MustAddConcept("Root", "")
	for _, c := range []string{"A", "B", "C", "Note"} {
		ont.MustAddConcept(c, "", "Root")
	}
	ont.MustAddConcept("B2", "", "B")
	pool := instances.NewPool(ont)
	pool.MustAdd("A", typesys.Str("a-value"), "")
	pool.MustAdd("B", typesys.Str("b-value"), "")

	suffix := func(s string) func(string) (string, error) {
		return func(in string) (string, error) { return in + s, nil }
	}
	noted := stringModule("ab2-noted", "A", "B2", suffix("-noted"))
	noted.Outputs = append(noted.Outputs, module.Parameter{Name: "note", Struct: typesys.StringType, Semantic: "Note"})
	p := fixturePlanner(ont, pool, []*module.Module{
		stringModule("ab", "A", "B", suffix("-ab")),
		stringModule("ab2", "A", "B2", suffix("-ab2")),
		noted,
		stringModule("bc", "B", "C", suffix("-bc")),
	})
	p.View = NewView(p.Ont, p.Reg, p.keyed())

	cs := Constraints{In: "A", Out: "C", MustAvoid: []string{"Note"}}
	for _, req := range []string{"first", "second"} {
		plans, st, err := p.PlanStats(cs)
		if err != nil {
			t.Fatal(err)
		}
		var chains []string
		for _, plan := range plans {
			chains = append(chains, plan.Chain())
			if !plan.Verified {
				t.Errorf("%s request: plan %s not verified: %s", req, plan.Chain(), plan.Rationale)
			}
		}
		if got := strings.Join(chains, "; "); got != "ab -> bc; ab2 -> bc" {
			t.Errorf("%s request: plans %q, want %q", req, got, "ab -> bc; ab2 -> bc")
		}
		if st.Repartitioned != 1 || st.Built != 2 {
			t.Errorf("%s request: %+v, want one thinned group and two built plans", req, st)
		}
	}
}

// TestBehaviorClassesFollowFingerprints relates the two "behaves the
// same" relations over the whole stored catalog: a behavior class is a
// union of Equivalent verdicts, behaves: search matches identical
// fingerprints, and PlanStep.Class shows the representative's
// fingerprint. Within a signature group, members whose stored sets share
// a fingerprint must share a class; a class may still hold several
// fingerprints, since Equivalent does not need identical examples.
// Members without stored examples are singletons and are not compared.
func TestBehaviorClassesFollowFingerprints(t *testing.T) {
	c := sharedCatalog(t)
	p := c.keyedPlanner()
	v := NewView(p.Ont, p.Reg, p.Keyed)
	var sc match.CompareScratch
	mixed, classes := 0, 0
	for _, g := range v.groups {
		classOf := map[string]*behaviorClass{} // fingerprint -> class
		for _, bc := range v.classesOf(g, &sc) {
			classes++
			prints := map[string]bool{}
			for _, m := range bc.members {
				set := v.set(m.ID)
				if set == nil {
					continue
				}
				fp := search.FingerprintKeyed(set)
				prints[fp] = true
				if prev, ok := classOf[fp]; ok && prev != bc {
					t.Errorf("group %s: %s shares fingerprint %s with class of %s but sits in class of %s",
						g.key, m.ID, fp, prev.rep.ID, bc.rep.ID)
				}
				classOf[fp] = bc
			}
			if len(prints) > 1 {
				mixed++
			}
		}
	}
	t.Logf("%d of %d behavior classes hold members with different fingerprints", mixed, classes)
}
