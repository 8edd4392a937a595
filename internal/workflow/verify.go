package workflow

import (
	"fmt"

	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/typesys"
)

// Verify is the acceptance check for a synthesized workflow: it must be
// structurally and semantically valid against the registry and ontology,
// and it must actually enact on the given workflow-level inputs. The
// workflow-level outputs of the verification run are returned as the
// witness. A failure raised while enacting a valid workflow comes back
// as an *EnactError.
func Verify(reg *registry.Registry, ont *ontology.Ontology, w *Workflow, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	if w == nil {
		return nil, fmt.Errorf("workflow: no workflow to verify")
	}
	if err := w.Validate(reg, ont); err != nil {
		return nil, err
	}
	outs, err := NewEnactor(reg).Enact(w, inputs)
	if err != nil {
		return nil, &EnactError{Err: err}
	}
	return outs, nil
}

// EnactError is a Verify failure raised by the enactment of a workflow
// that validated: a step's module failed or rejected its inputs. Unlike a
// validation failure it is not decided by the catalog alone, so it need
// not recur — a remote module may fail transiently. Its message is the
// enactment error's.
type EnactError struct{ Err error }

func (e *EnactError) Error() string { return e.Err.Error() }
func (e *EnactError) Unwrap() error { return e.Err }

// VerifyRepair implements the §6 verification step: the repaired workflow
// is enacted on sample inputs and its results compared with a reference.
// The reference is either the original workflow (when it can still be
// enacted against a registry snapshot) or recorded outputs.
//
// It returns nil when, for every sample, the repaired workflow terminates
// normally and delivers outputs equal to the reference outputs.
type VerifySample struct {
	// Inputs are the workflow-level input values for this sample.
	Inputs map[string]typesys.Value
	// Want are the reference workflow-level outputs.
	Want map[string]typesys.Value
}

// VerifyRepair enacts the repaired workflow on every sample.
func VerifyRepair(en *Enactor, repaired *Workflow, samples []VerifySample) error {
	if repaired == nil {
		return fmt.Errorf("workflow: no repaired workflow to verify")
	}
	if len(samples) == 0 {
		return fmt.Errorf("workflow %s: no verification samples", repaired.ID)
	}
	for i, s := range samples {
		got, err := en.Enact(repaired, s.Inputs)
		if err != nil {
			return fmt.Errorf("workflow %s: sample %d: enactment failed: %w", repaired.ID, i, err)
		}
		for name, want := range s.Want {
			gv, ok := got[name]
			if !ok {
				return fmt.Errorf("workflow %s: sample %d: output %q missing", repaired.ID, i, name)
			}
			if !gv.Equal(want) {
				return fmt.Errorf("workflow %s: sample %d: output %q differs from reference", repaired.ID, i, name)
			}
		}
	}
	return nil
}

// CollectSamples enacts the reference workflow on the given input sets and
// packages the results as verification samples. It is the convenient way
// to snapshot reference behaviour before applying a repair.
func CollectSamples(en *Enactor, reference *Workflow, inputSets []map[string]typesys.Value) ([]VerifySample, error) {
	var out []VerifySample
	for i, inputs := range inputSets {
		want, err := en.Enact(reference, inputs)
		if err != nil {
			return nil, fmt.Errorf("workflow %s: reference sample %d: %w", reference.ID, i, err)
		}
		out = append(out, VerifySample{Inputs: inputs, Want: want})
	}
	return out, nil
}
