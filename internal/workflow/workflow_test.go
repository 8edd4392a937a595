package workflow_test

import (
	"strings"
	"testing"

	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/provenance"
	"dexa/internal/registry"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// fixture reproduces the Figure-1 protein identification workflow:
// Identify -> GetRecord -> SearchSimple.
type fixture struct {
	ont *ontology.Ontology
	reg *registry.Registry
	wf  *workflow.Workflow
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("PeptideMassList", "", "Data")
	o.MustAddConcept("Percentage", "", "Data")
	o.MustAddConcept("Accession", "", "Data")
	o.MustAddConcept("UniprotAcc", "", "Accession")
	o.MustAddConcept("Record", "", "Data")
	o.MustAddConcept("UniprotRecord", "", "Record")
	o.MustAddConcept("Report", "", "Data")
	o.MustAddConcept("ProgramName", "", "Data")
	o.MustAddConcept("DatabaseName", "", "Data")

	reg := registry.New()
	reg.MustRegister(identifyModule("identify", "EBI"))
	reg.MustRegister(getRecordModule("getRecord", "EBI", "REC "))
	reg.MustRegister(searchModule("searchSimple", "EBI"))

	wf := &workflow.Workflow{
		ID: "wf-protid", Name: "Protein identification",
		Inputs: []workflow.Port{
			{Name: "masses", Struct: typesys.ListOf(typesys.FloatType), Semantic: "PeptideMassList"},
			{Name: "err", Struct: typesys.FloatType, Semantic: "Percentage"},
		},
		Outputs: []workflow.Port{{Name: "report", Struct: typesys.StringType, Semantic: "Report"}},
		Steps: []workflow.Step{
			{ID: "s1", ModuleID: "identify"},
			{ID: "s2", ModuleID: "getRecord"},
			{ID: "s3", ModuleID: "searchSimple", Constants: map[string]typesys.Value{
				"program":  typesys.Str("blastp"),
				"database": typesys.Str("uniprot"),
			}},
		},
		Links: []workflow.Link{
			{From: workflow.PortRef{Port: "masses"}, To: workflow.PortRef{Step: "s1", Port: "masses"}},
			{From: workflow.PortRef{Port: "err"}, To: workflow.PortRef{Step: "s1", Port: "err"}},
			{From: workflow.PortRef{Step: "s1", Port: "acc"}, To: workflow.PortRef{Step: "s2", Port: "acc"}},
			{From: workflow.PortRef{Step: "s2", Port: "record"}, To: workflow.PortRef{Step: "s3", Port: "record"}},
			{From: workflow.PortRef{Step: "s3", Port: "report"}, To: workflow.PortRef{Port: "report"}},
		},
	}
	return &fixture{ont: o, reg: reg, wf: wf}
}

func identifyModule(id, provider string) *module.Module {
	m := &module.Module{
		ID: id, Name: "Identify", Provider: provider, Kind: module.KindAnalysis,
		Inputs: []module.Parameter{
			{Name: "masses", Struct: typesys.ListOf(typesys.FloatType), Semantic: "PeptideMassList"},
			{Name: "err", Struct: typesys.FloatType, Semantic: "Percentage"},
		},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "UniprotAcc"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		masses := in["masses"].(typesys.ListValue)
		e := float64(in["err"].(typesys.FloatValue))
		if e > 50 {
			return nil, module.ErrRejectedInput
		}
		sum := 0.0
		for _, v := range masses.Items {
			sum += float64(v.(typesys.FloatValue))
		}
		return map[string]typesys.Value{"acc": typesys.Str(accOf(sum))}, nil
	}))
	return m
}

func accOf(sum float64) string {
	return "P" + strings.Repeat("0", 3) + string(rune('A'+int(sum)%26))
}

func getRecordModule(id, provider, prefix string) *module.Module {
	m := &module.Module{
		ID: id, Name: "GetRecord", Provider: provider, Kind: module.KindRetrieval,
		Inputs:  []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "UniprotAcc"}},
		Outputs: []module.Parameter{{Name: "record", Struct: typesys.StringType, Semantic: "UniprotRecord"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"record": typesys.Str(prefix + string(in["acc"].(typesys.StringValue)))}, nil
	}))
	return m
}

func searchModule(id, provider string) *module.Module {
	m := &module.Module{
		ID: id, Name: "SearchSimple", Provider: provider, Kind: module.KindAnalysis,
		Inputs: []module.Parameter{
			{Name: "record", Struct: typesys.StringType, Semantic: "UniprotRecord"},
			{Name: "program", Struct: typesys.StringType, Semantic: "ProgramName"},
			{Name: "database", Struct: typesys.StringType, Semantic: "DatabaseName"},
		},
		Outputs: []module.Parameter{{Name: "report", Struct: typesys.StringType, Semantic: "Report"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"report": typesys.Str(
			"ALN(" + in["program"].String() + "," + in["database"].String() + "):" + in["record"].String())}, nil
	}))
	return m
}

func wfInputs() map[string]typesys.Value {
	return map[string]typesys.Value{
		"masses": typesys.MustList(typesys.FloatType, typesys.Floatv(1), typesys.Floatv(2)),
		"err":    typesys.Floatv(5),
	}
}

func TestValidateOK(t *testing.T) {
	f := newFixture(t)
	if err := f.wf.Validate(f.reg, f.ont); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	f := newFixture(t)
	order, err := f.wf.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "s1" || order[1] != "s2" || order[2] != "s3" {
		t.Errorf("order = %v", order)
	}
	// Cycle detection.
	f.wf.Links = append(f.wf.Links, workflow.Link{
		From: workflow.PortRef{Step: "s3", Port: "report"},
		To:   workflow.PortRef{Step: "s1", Port: "err"},
	})
	if _, err := f.wf.TopoOrder(); err == nil {
		t.Error("cycle should be detected")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(f *fixture)
	}{
		{"empty id", func(f *fixture) { f.wf.ID = "" }},
		{"no steps", func(f *fixture) { f.wf.Steps = nil }},
		{"dup step", func(f *fixture) { f.wf.Steps = append(f.wf.Steps, f.wf.Steps[0]) }},
		{"empty step id", func(f *fixture) { f.wf.Steps[0].ID = "" }},
		{"unknown module", func(f *fixture) { f.wf.Steps[0].ModuleID = "ghost" }},
		{"unknown source port", func(f *fixture) { f.wf.Links[2].From.Port = "nope" }},
		{"unknown sink port", func(f *fixture) { f.wf.Links[2].To.Port = "nope" }},
		{"unknown source step", func(f *fixture) { f.wf.Links[2].From.Step = "nope" }},
		{"unknown sink step", func(f *fixture) { f.wf.Links[2].To.Step = "nope" }},
		{"unknown workflow input", func(f *fixture) { f.wf.Links[0].From.Port = "nope" }},
		{"unknown workflow output", func(f *fixture) { f.wf.Links[4].To.Port = "nope" }},
		{"unfed required input", func(f *fixture) { f.wf.Links = f.wf.Links[1:] }},
		{"double-fed input", func(f *fixture) {
			f.wf.Links = append(f.wf.Links, f.wf.Links[2])
		}},
		{"constant for unknown input", func(f *fixture) {
			f.wf.Steps[2].Constants["bogus"] = typesys.Str("x")
		}},
		{"structural mismatch", func(f *fixture) {
			f.wf.Inputs[1].Struct = typesys.IntType // err: float expected by identify
		}},
		{"semantic mismatch", func(f *fixture) {
			// Record concept does not subsume UniprotAcc.
			f.wf.Inputs[0] = workflow.Port{Name: "masses", Struct: typesys.ListOf(typesys.FloatType), Semantic: "Record"}
		}},
		{"output fed twice", func(f *fixture) {
			f.wf.Links = append(f.wf.Links, workflow.Link{
				From: workflow.PortRef{Step: "s3", Port: "report"},
				To:   workflow.PortRef{Port: "report"},
			})
		}},
	}
	for _, c := range cases {
		f := newFixture(t)
		c.mutate(f)
		if err := f.wf.Validate(f.reg, f.ont); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestSemanticSubsumptionOnLinksAllowed(t *testing.T) {
	f := newFixture(t)
	// A producer of UniprotAcc feeding a consumer annotated Accession is
	// fine (consumer subsumes producer).
	gr, _ := f.reg.Get("getRecord")
	gr.Module.Inputs[0].Semantic = "Accession"
	if err := f.wf.Validate(f.reg, f.ont); err != nil {
		t.Errorf("superconcept consumer should validate: %v", err)
	}
}

func TestEnact(t *testing.T) {
	f := newFixture(t)
	en := workflow.NewEnactor(f.reg)
	out, err := en.Enact(f.wf, wfInputs())
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	report := out["report"].String()
	if !strings.HasPrefix(report, "ALN(blastp,uniprot):REC P000") {
		t.Errorf("report = %q", report)
	}
}

func TestEnactInputValidation(t *testing.T) {
	f := newFixture(t)
	en := workflow.NewEnactor(f.reg)
	if _, err := en.Enact(f.wf, map[string]typesys.Value{"err": typesys.Floatv(1)}); err == nil {
		t.Error("missing workflow input should fail")
	}
	bad := wfInputs()
	bad["masses"] = typesys.Str("oops")
	if _, err := en.Enact(f.wf, bad); err == nil {
		t.Error("non-conforming workflow input should fail")
	}
}

func TestEnactWithProvenance(t *testing.T) {
	f := newFixture(t)
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: f.reg, Recorder: corpus}
	if _, err := en.Enact(f.wf, wfInputs()); err != nil {
		t.Fatal(err)
	}
	if corpus.Len() != 3 {
		t.Fatalf("records = %d", corpus.Len())
	}
	recs := corpus.Records()
	if recs[0].ModuleID != "identify" || recs[0].Seq != 1 || recs[0].Failed {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[1].InputConcepts["acc"] != "UniprotAcc" {
		t.Errorf("concepts not recorded: %+v", recs[1].InputConcepts)
	}
	if recs[2].Outputs["report"] == nil {
		t.Error("outputs not recorded")
	}
}

func TestEnactFailureRecorded(t *testing.T) {
	f := newFixture(t)
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: f.reg, Recorder: corpus}
	in := wfInputs()
	in["err"] = typesys.Floatv(99) // identify rejects
	if _, err := en.Enact(f.wf, in); err == nil {
		t.Fatal("expected failure")
	}
	if corpus.Len() != 1 {
		t.Fatalf("records = %d", corpus.Len())
	}
	rec := corpus.Records()[0]
	if !rec.Failed || rec.Outputs != nil || rec.Error == "" {
		t.Errorf("failure record = %+v", rec)
	}
}

func TestDecayDetection(t *testing.T) {
	f := newFixture(t)
	if got := f.wf.BrokenSteps(f.reg); len(got) != 0 {
		t.Errorf("healthy workflow broken = %v", got)
	}
	for _, m := range f.reg.Available() {
		if m.Provider == "EBI" {
			if err := f.reg.SetAvailable(m.ID, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := f.wf.BrokenSteps(f.reg)
	if len(got) != 3 {
		t.Errorf("broken = %v", got)
	}
	en := workflow.NewEnactor(f.reg)
	if _, err := en.Enact(f.wf, wfInputs()); err == nil || !strings.Contains(err.Error(), "decay") {
		t.Errorf("decayed enactment error = %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := newFixture(t)
	c := f.wf.Clone()
	c.Steps[0].ModuleID = "other"
	c.Steps[2].Constants["program"] = typesys.Str("mutated")
	c.Links[0].From.Port = "mutated"
	if f.wf.Steps[0].ModuleID != "identify" {
		t.Error("step mutation leaked")
	}
	if f.wf.Steps[2].Constants["program"].String() != "blastp" {
		t.Error("constant mutation leaked")
	}
	if f.wf.Links[0].From.Port != "masses" {
		t.Error("link mutation leaked")
	}
}

func TestRepairEquivalent(t *testing.T) {
	f := newFixture(t)
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: f.reg, Recorder: corpus}
	want, err := en.Enact(f.wf, wfInputs())
	if err != nil {
		t.Fatal(err)
	}

	// A behaviourally identical getRecord from another provider.
	f.reg.MustRegister(getRecordModule("getRecord-ddbj", "DDBJ", "REC "))
	// And a behaviourally different one.
	f.reg.MustRegister(getRecordModule("getRecord-weird", "NCBI", "XML "))

	// The EBI getRecord decays.
	if err := f.reg.SetAvailable("getRecord", false); err != nil {
		t.Fatal(err)
	}

	rep := &workflow.Repairer{
		Reg:      f.reg,
		Exact:    match.NewComparer(f.ont, nil),
		Examples: corpus.Source,
	}
	res, err := rep.Repair(f.wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != workflow.FullyRepaired {
		t.Fatalf("status = %v (%+v)", res.Status, res.Unrepairable)
	}
	if len(res.Replacements) != 1 || res.Replacements[0].NewModuleID != "getRecord-ddbj" {
		t.Fatalf("replacements = %+v", res.Replacements)
	}
	if res.Replacements[0].Verdict != match.Equivalent {
		t.Errorf("verdict = %v", res.Replacements[0].Verdict)
	}
	// The repaired workflow re-enacts with identical results.
	out, err := workflow.NewEnactor(f.reg).Enact(res.Repaired, wfInputs())
	if err != nil {
		t.Fatal(err)
	}
	if !out["report"].Equal(want["report"]) {
		t.Errorf("repaired output %v != original %v", out["report"], want["report"])
	}
	// The original workflow object was not mutated.
	if f.wf.Steps[1].ModuleID != "getRecord" {
		t.Error("Repair mutated the input workflow")
	}
}

func TestRepairNoExamples(t *testing.T) {
	f := newFixture(t)
	f.reg.MustRegister(getRecordModule("getRecord-ddbj", "DDBJ", "REC "))
	f.reg.SetAvailable("getRecord", false)
	rep := &workflow.Repairer{Reg: f.reg, Exact: match.NewComparer(f.ont, nil)}
	res, err := rep.Repair(f.wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != workflow.Unrepaired {
		t.Errorf("status = %v", res.Status)
	}
	if reason := res.Unrepairable["s2"]; !strings.Contains(reason, "no data examples") {
		t.Errorf("reason = %q", reason)
	}
}

func TestRepairNotBroken(t *testing.T) {
	f := newFixture(t)
	rep := &workflow.Repairer{Reg: f.reg, Exact: match.NewComparer(f.ont, nil)}
	res, err := rep.Repair(f.wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != workflow.NotBroken || res.Repaired != nil {
		t.Errorf("res = %+v", res)
	}
}

func TestRepairPartial(t *testing.T) {
	f := newFixture(t)
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: f.reg, Recorder: corpus}
	if _, err := en.Enact(f.wf, wfInputs()); err != nil {
		t.Fatal(err)
	}
	f.reg.MustRegister(getRecordModule("getRecord-ddbj", "DDBJ", "REC "))
	// Both getRecord and identify decay; only getRecord has a substitute.
	f.reg.SetAvailable("getRecord", false)
	f.reg.SetAvailable("identify", false)
	rep := &workflow.Repairer{Reg: f.reg, Exact: match.NewComparer(f.ont, nil), Examples: corpus.Source}
	res, err := rep.Repair(f.wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != workflow.PartiallyRepaired {
		t.Errorf("status = %v", res.Status)
	}
	if len(res.Replacements) != 1 || len(res.Unrepairable) != 1 {
		t.Errorf("res = %+v", res)
	}
	if workflow.FullyRepaired.String() != "fully-repaired" || workflow.NotBroken.String() != "not-broken" ||
		workflow.PartiallyRepaired.String() != "partially-repaired" || workflow.Unrepaired.String() != "unrepaired" {
		t.Error("status names")
	}
}

// TestRepairContextual exercises the Figure-7 path: the only substitute has
// broader semantics and is only equivalent within the step's context.
func TestRepairContextual(t *testing.T) {
	f := newFixture(t)
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: f.reg, Recorder: corpus}
	if _, err := en.Enact(f.wf, wfInputs()); err != nil {
		t.Fatal(err)
	}
	// getAnyRecord takes any Accession and returns a Record; it behaves
	// like getRecord on Uniprot accessions ("P..."), differently elsewhere.
	broad := &module.Module{
		ID: "getAnyRecord", Name: "GetAnyRecord", Provider: "NCBI", Kind: module.KindRetrieval,
		Inputs:  []module.Parameter{{Name: "id", Struct: typesys.StringType, Semantic: "Accession"}},
		Outputs: []module.Parameter{{Name: "rec", Struct: typesys.StringType, Semantic: "Record"}},
	}
	broad.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		s := string(in["id"].(typesys.StringValue))
		if strings.HasPrefix(s, "P") {
			return map[string]typesys.Value{"rec": typesys.Str("REC " + s)}, nil
		}
		return map[string]typesys.Value{"rec": typesys.Str("GEN " + s)}, nil
	}))
	f.reg.MustRegister(broad)
	f.reg.SetAvailable("getRecord", false)

	exact := match.NewComparer(f.ont, nil)
	relaxed := match.NewComparer(f.ont, nil)
	relaxed.Mode = match.ModeRelaxed
	rep := &workflow.Repairer{Reg: f.reg, Exact: exact, Relaxed: relaxed, Examples: corpus.Source}
	res, err := rep.Repair(f.wf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != workflow.FullyRepaired {
		t.Fatalf("status = %v (%+v)", res.Status, res.Unrepairable)
	}
	r := res.Replacements[0]
	if r.NewModuleID != "getAnyRecord" || !r.Contextual || r.Verdict != match.Overlapping {
		t.Errorf("replacement = %+v", r)
	}
}

func TestPortRefString(t *testing.T) {
	if (workflow.PortRef{Step: "s", Port: "p"}).String() != "s.p" {
		t.Error("step port ref")
	}
	if (workflow.PortRef{Port: "p"}).String() != ":p" {
		t.Error("workflow port ref")
	}
}
