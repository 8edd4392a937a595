package workflow_test

import (
	"errors"
	"strings"
	"testing"

	"dexa/internal/match"
	"dexa/internal/provenance"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

func TestCollectAndVerifySamples(t *testing.T) {
	f := newFixture(t)
	en := workflow.NewEnactor(f.reg)
	inputSets := []map[string]typesys.Value{
		wfInputs(),
		{
			"masses": typesys.MustList(typesys.FloatType, typesys.Floatv(3), typesys.Floatv(4)),
			"err":    typesys.Floatv(10),
		},
	}
	samples, err := workflow.CollectSamples(en, f.wf, inputSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	// The unmodified workflow trivially verifies against its own samples.
	if err := workflow.VerifyRepair(en, f.wf, samples); err != nil {
		t.Errorf("self verification failed: %v", err)
	}
}

// TestVerifyEnactError: Verify marks a failure raised while enacting a
// valid workflow as an *EnactError, which a caller may retry, and leaves
// a validation failure, which the catalog decides, unmarked.
func TestVerifyEnactError(t *testing.T) {
	f := newFixture(t)
	if _, err := workflow.Verify(f.reg, f.ont, f.wf, wfInputs()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	var enact *workflow.EnactError
	in := wfInputs()
	in["err"] = typesys.Floatv(99) // identify rejects
	if _, err := workflow.Verify(f.reg, f.ont, f.wf, in); !errors.As(err, &enact) {
		t.Errorf("a module rejecting its inputs gave %v, want an *EnactError", err)
	}
	invalid := f.wf.Clone()
	s, _ := invalid.Step("s2")
	s.ModuleID = "noSuchModule"
	if _, err := workflow.Verify(f.reg, f.ont, invalid, wfInputs()); err == nil || errors.As(err, &enact) {
		t.Errorf("an unknown module gave %v, want a validation error", err)
	}
}

func TestVerifyRepairAfterSubstitution(t *testing.T) {
	f := newFixture(t)
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: f.reg, Recorder: corpus}
	samples, err := workflow.CollectSamples(en, f.wf, []map[string]typesys.Value{wfInputs()})
	if err != nil {
		t.Fatal(err)
	}

	// Equivalent substitute: verification passes.
	f.reg.MustRegister(getRecordModule("getRecord-ddbj", "DDBJ", "REC "))
	f.reg.SetAvailable("getRecord", false)
	rep := &workflow.Repairer{Reg: f.reg, Exact: match.NewComparer(f.ont, nil), Examples: corpus.Source}
	res, err := rep.Repair(f.wf)
	if err != nil || res.Status != workflow.FullyRepaired {
		t.Fatalf("repair: %+v, %v", res, err)
	}
	if err := workflow.VerifyRepair(workflow.NewEnactor(f.reg), res.Repaired, samples); err != nil {
		t.Errorf("verification of equivalent substitute failed: %v", err)
	}

	// A behaviourally different substitute fails verification.
	bogus := res.Repaired.Clone()
	s, _ := bogus.Step("s2")
	f.reg.MustRegister(getRecordModule("getRecord-weird", "NCBI", "XML "))
	s.ModuleID = "getRecord-weird"
	err = workflow.VerifyRepair(workflow.NewEnactor(f.reg), bogus, samples)
	if err == nil || !strings.Contains(err.Error(), "differs from reference") {
		t.Errorf("bogus substitute should fail verification, got %v", err)
	}
}

func TestVerifyRepairErrors(t *testing.T) {
	f := newFixture(t)
	en := workflow.NewEnactor(f.reg)
	if err := workflow.VerifyRepair(en, nil, nil); err == nil {
		t.Error("nil workflow should fail")
	}
	if err := workflow.VerifyRepair(en, f.wf, nil); err == nil {
		t.Error("no samples should fail")
	}
	// Failing enactment surfaces.
	samples := []workflow.VerifySample{{
		Inputs: map[string]typesys.Value{"err": typesys.Floatv(1)}, // missing masses
		Want:   map[string]typesys.Value{},
	}}
	if err := workflow.VerifyRepair(en, f.wf, samples); err == nil {
		t.Error("failing enactment should fail verification")
	}
	// Reference expecting an output the workflow does not produce.
	bad := []workflow.VerifySample{{
		Inputs: wfInputs(),
		Want:   map[string]typesys.Value{"nonexistent": typesys.Str("x")},
	}}
	if err := workflow.VerifyRepair(en, f.wf, bad); err == nil {
		t.Error("missing output should fail verification")
	}
	// CollectSamples propagates reference failures.
	broken := []map[string]typesys.Value{{"err": typesys.Floatv(1)}}
	if _, err := workflow.CollectSamples(en, f.wf, broken); err == nil {
		t.Error("CollectSamples should propagate enactment failure")
	}
}
