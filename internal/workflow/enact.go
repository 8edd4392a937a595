package workflow

import (
	"fmt"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/typesys"
)

// InvocationRecord is the provenance record of one step invocation during
// enactment: the data consumed and produced, annotated with the concepts
// of the module parameters at invocation time. Failed invocations are
// recorded too (Failed == true, Outputs nil).
type InvocationRecord struct {
	WorkflowID string
	StepID     string
	ModuleID   string
	Seq        int
	Inputs     map[string]typesys.Value
	Outputs    map[string]typesys.Value
	// InputConcepts / OutputConcepts carry sem(p) per parameter, so
	// harvesting can annotate the recorded values.
	InputConcepts  map[string]string
	OutputConcepts map[string]string
	Failed         bool
	Error          string
}

// Recorder receives provenance records during enactment.
type Recorder interface {
	OnInvocation(rec InvocationRecord)
}

// RecorderFunc adapts a function to the Recorder interface.
type RecorderFunc func(rec InvocationRecord)

// OnInvocation calls f.
func (f RecorderFunc) OnInvocation(rec InvocationRecord) { f(rec) }

// Enactor executes workflows against a module registry.
type Enactor struct {
	Reg *registry.Registry
	// Recorder, when non-nil, receives a provenance record per invocation.
	Recorder Recorder
}

// NewEnactor builds an enactor over the registry.
func NewEnactor(reg *registry.Registry) *Enactor { return &Enactor{Reg: reg} }

// Enact runs the workflow on the given workflow-level inputs and returns
// the workflow-level outputs. Steps execute in topological order; each
// step's inputs are gathered from constants, workflow inputs and upstream
// step outputs. Enactment fails fast on the first failing step (after
// recording the failure) and on decayed modules.
func (e *Enactor) Enact(w *Workflow, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	order, err := w.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, p := range w.Inputs {
		v, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("workflow %s: missing workflow input %q", w.ID, p.Name)
		}
		if !typesys.Conforms(v, p.Struct) {
			return nil, fmt.Errorf("workflow %s: workflow input %q does not conform to %s", w.ID, p.Name, p.Struct)
		}
	}
	// produced maps "step.port"/":port" to the value available there.
	produced := map[string]typesys.Value{}
	for name, v := range inputs {
		produced[PortRef{Port: name}.String()] = v
	}
	incoming := w.incomingLinks()
	seq := 0
	for _, stepID := range order {
		s, _ := w.Step(stepID)
		m, available, ok := e.Reg.Lookup(s.ModuleID)
		if !ok {
			return nil, fmt.Errorf("workflow %s: step %s: module %q not registered", w.ID, stepID, s.ModuleID)
		}
		if !available {
			return nil, fmt.Errorf("workflow %s: step %s: module %q is unavailable (workflow decay)", w.ID, stepID, s.ModuleID)
		}
		stepInputs := map[string]typesys.Value{}
		for name, v := range s.Constants {
			stepInputs[name] = v
		}
		for _, l := range incoming[stepID] {
			v, ok := produced[l.From.String()]
			if !ok {
				return nil, fmt.Errorf("workflow %s: step %s: no value at %s", w.ID, stepID, l.From)
			}
			stepInputs[l.To.Port] = v
		}
		outs, err := m.Invoke(stepInputs)
		seq++
		if e.Recorder != nil {
			rec := InvocationRecord{
				WorkflowID: w.ID, StepID: stepID, ModuleID: m.ID, Seq: seq,
				Inputs: stepInputs, Outputs: outs,
				InputConcepts:  inputConcepts(m),
				OutputConcepts: outputConcepts(m),
			}
			if err != nil {
				rec.Failed = true
				rec.Outputs = nil
				rec.Error = err.Error()
			}
			e.Recorder.OnInvocation(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("workflow %s: step %s: %w", w.ID, stepID, err)
		}
		for name, v := range outs {
			produced[PortRef{Step: stepID, Port: name}.String()] = v
		}
	}
	results := map[string]typesys.Value{}
	for _, l := range w.Links {
		if l.To.Step == "" {
			v, ok := produced[l.From.String()]
			if !ok {
				return nil, fmt.Errorf("workflow %s: output %s: no value at %s", w.ID, l.To.Port, l.From)
			}
			results[l.To.Port] = v
		}
	}
	for _, p := range w.Outputs {
		if _, ok := results[p.Name]; !ok {
			return nil, fmt.Errorf("workflow %s: output %q was not produced", w.ID, p.Name)
		}
	}
	return results, nil
}

func inputConcepts(m *module.Module) map[string]string {
	out := make(map[string]string, len(m.Inputs))
	for _, p := range m.Inputs {
		out[p.Name] = p.Semantic
	}
	return out
}

func outputConcepts(m *module.Module) map[string]string {
	out := make(map[string]string, len(m.Outputs))
	for _, p := range m.Outputs {
		out[p.Name] = p.Semantic
	}
	return out
}
