// Package module defines the scientific-module model of the paper (§2):
// a module m = ⟨id, name⟩ with ordered input and output parameters, each
// parameter carrying a structural type str(p) and a semantic type sem(p).
//
// Modules are black boxes: the only way to learn anything about their
// behaviour is to invoke them. The Executor interface captures that
// boundary; implementations range from in-process functions to REST and
// SOAP clients (package transport). Invoke validates inputs and outputs
// against the declared parameter types, fills optional parameters with
// their defaults, and reports abnormal termination as an *ExecutionError —
// the signal the generation heuristic uses to discard invalid input
// combinations (§3.2).
package module

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dexa/internal/typesys"
)

// Form records how a module is supplied (paper §4.1: Java/Python programs,
// REST services, SOAP web services).
type Form int

// The supported module forms.
const (
	FormLocal Form = iota // locally hosted program
	FormREST              // REST service
	FormSOAP              // SOAP web service
)

// String returns the lexical form name.
func (f Form) String() string {
	switch f {
	case FormLocal:
		return "local"
	case FormREST:
		return "rest"
	case FormSOAP:
		return "soap"
	default:
		return fmt.Sprintf("form(%d)", int(f))
	}
}

// Kind is the kind of data manipulation a module carries out (paper
// Table 3). It is ground-truth metadata used by the evaluation; the
// generation heuristic never reads it.
type Kind int

// The module kinds of Table 3.
const (
	KindUnknown Kind = iota
	KindTransformation
	KindRetrieval
	KindMapping
	KindFiltering
	KindAnalysis
)

// String returns the Table-3 label for the kind.
func (k Kind) String() string {
	switch k {
	case KindTransformation:
		return "format transformation"
	case KindRetrieval:
		return "data retrieval"
	case KindMapping:
		return "mapping identifiers"
	case KindFiltering:
		return "filtering"
	case KindAnalysis:
		return "data analysis"
	default:
		return "unknown"
	}
}

// Parameter describes one input or output of a module.
type Parameter struct {
	// Name is unique among the parameters on the same side of the module.
	Name string
	// Struct is the structural type str(p).
	Struct typesys.Type
	// Semantic is the ontology concept ID sem(p); empty when the parameter
	// has not been annotated yet.
	Semantic string
	// Optional marks an input that may be omitted; Default (or null) is
	// substituted. Only meaningful on inputs.
	Optional bool
	// Default is the value used for an omitted optional input; nil means
	// typesys.Null is used.
	Default typesys.Value
}

// Executor is the invocation boundary of a black-box module. Inputs map
// parameter names to values; the returned map must contain a value for
// every declared output. An error return models abnormal termination.
type Executor interface {
	Invoke(inputs map[string]typesys.Value) (map[string]typesys.Value, error)
}

// ExecFunc adapts a function to the Executor interface.
type ExecFunc func(inputs map[string]typesys.Value) (map[string]typesys.Value, error)

// Invoke calls f.
func (f ExecFunc) Invoke(inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	return f(inputs)
}

// ExecutionError reports that a module invocation terminated abnormally
// (the module rejected the input combination or failed internally). The
// generation heuristic treats these as "combinations that do not yield
// normal termination" and constructs no data example for them.
type ExecutionError struct {
	ModuleID string
	Err      error
}

// Error implements error.
func (e *ExecutionError) Error() string {
	return fmt.Sprintf("module %s: execution failed: %v", e.ModuleID, e.Err)
}

// Unwrap returns the underlying cause.
func (e *ExecutionError) Unwrap() error { return e.Err }

// IsExecutionError reports whether err is (or wraps) an ExecutionError.
func IsExecutionError(err error) bool {
	var ee *ExecutionError
	return errors.As(err, &ee)
}

// ErrRejectedInput is the conventional cause modules return for input
// combinations outside their domain of definition.
var ErrRejectedInput = errors.New("input combination rejected")

// Module is a scientific module: identity, parameter signature, and the
// executor that implements it. The ground-truth Kind and the Provider are
// evaluation metadata.
type Module struct {
	ID          string
	Name        string
	Description string
	Form        Form
	Kind        Kind
	// Provider identifies the hosting organisation; the workflow decay model
	// retires whole providers at a time.
	Provider string

	Inputs  []Parameter
	Outputs []Parameter

	exec Executor
}

// Bind attaches the executor implementing the module.
func (m *Module) Bind(exec Executor) { m.exec = exec }

// Bound reports whether an executor is attached.
func (m *Module) Bound() bool { return m.exec != nil }

// Executor returns the attached executor (nil when unbound), so callers
// can interpose wrappers — fault injection, resilience — around it.
func (m *Module) Executor() Executor { return m.exec }

// Input returns the named input parameter.
func (m *Module) Input(name string) (Parameter, bool) { return findParam(m.Inputs, name) }

// Output returns the named output parameter.
func (m *Module) Output(name string) (Parameter, bool) { return findParam(m.Outputs, name) }

func findParam(ps []Parameter, name string) (Parameter, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p, true
		}
	}
	return Parameter{}, false
}

// Validate checks the module declaration: non-empty ID and name, at least
// one input and one output, unique parameter names per side, valid
// structural types, and defaults conforming to their parameter types.
func (m *Module) Validate() error {
	if m.ID == "" {
		return fmt.Errorf("module: empty ID")
	}
	if m.Name == "" {
		return fmt.Errorf("module %s: empty name", m.ID)
	}
	if len(m.Inputs) == 0 {
		return fmt.Errorf("module %s: no input parameters", m.ID)
	}
	if len(m.Outputs) == 0 {
		return fmt.Errorf("module %s: no output parameters", m.ID)
	}
	for side, ps := range map[string][]Parameter{"input": m.Inputs, "output": m.Outputs} {
		seen := map[string]bool{}
		for _, p := range ps {
			if p.Name == "" {
				return fmt.Errorf("module %s: empty %s parameter name", m.ID, side)
			}
			if seen[p.Name] {
				return fmt.Errorf("module %s: duplicate %s parameter %q", m.ID, side, p.Name)
			}
			seen[p.Name] = true
			if !p.Struct.IsValid() {
				return fmt.Errorf("module %s: %s parameter %q has invalid structural type", m.ID, side, p.Name)
			}
			if p.Default != nil {
				if _, isNull := p.Default.(typesys.NullValue); !isNull && !typesys.Conforms(p.Default, p.Struct) {
					return fmt.Errorf("module %s: %s parameter %q default does not conform to %s", m.ID, side, p.Name, p.Struct)
				}
			}
			if p.Optional && side == "output" {
				return fmt.Errorf("module %s: output parameter %q cannot be optional", m.ID, p.Name)
			}
		}
	}
	return nil
}

// Invoke runs the module on the given inputs.
//
// Validation before execution: every declared required input must be
// present and conform to its structural type; optional inputs that are
// absent (or explicitly null) are replaced by their default value (or null
// when no default is declared); unknown input names are rejected.
// Validation after execution: the executor must return a conforming value
// for every declared output.
//
// Errors from the executor are wrapped in *ExecutionError, except
// *TransientError transport faults, which pass through unwrapped (they are
// retryable, not abnormal terminations); declaration and conformance
// problems are returned as plain errors so callers can tell "the module
// rejected this combination" from "the caller misused the API".
func (m *Module) Invoke(inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	return m.InvokeContext(context.Background(), inputs)
}

// InvokeContext is Invoke with a context: when the bound executor honours
// contexts (ContextExecutor — remote transports, the resilient stack) the
// context's deadline, cancellation and telemetry travel with the call;
// plain executors are invoked as before. Validation is identical to
// Invoke.
func (m *Module) InvokeContext(ctx context.Context, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	if m.exec == nil {
		return nil, fmt.Errorf("module %s: no executor bound", m.ID)
	}
	for name := range inputs {
		if _, ok := m.Input(name); !ok {
			return nil, fmt.Errorf("module %s: unknown input %q", m.ID, name)
		}
	}
	eff := make(map[string]typesys.Value, len(m.Inputs))
	for _, p := range m.Inputs {
		v, present := inputs[p.Name]
		if present {
			if _, isNull := v.(typesys.NullValue); isNull {
				present = false
			}
		}
		if !present {
			if !p.Optional {
				return nil, fmt.Errorf("module %s: missing required input %q", m.ID, p.Name)
			}
			if p.Default != nil {
				eff[p.Name] = p.Default
			} else {
				eff[p.Name] = typesys.Null
			}
			continue
		}
		if !typesys.Conforms(v, p.Struct) {
			return nil, fmt.Errorf("module %s: input %q = %s does not conform to %s", m.ID, p.Name, v, p.Struct)
		}
		eff[p.Name] = v
	}
	outs, err := InvokeWithContext(ctx, m.exec, eff)
	if err != nil {
		// Transient transport faults are not the module speaking — they must
		// not become abnormal terminations, or the generation heuristic would
		// misreport a dropped connection as a semantically invalid input
		// combination. Stamp the module ID and pass them through.
		var te *TransientError
		if errors.As(err, &te) {
			if te.ModuleID == "" {
				te.ModuleID = m.ID
			}
			return nil, err
		}
		return nil, &ExecutionError{ModuleID: m.ID, Err: err}
	}
	for _, p := range m.Outputs {
		v, ok := outs[p.Name]
		if !ok {
			return nil, fmt.Errorf("module %s: executor returned no value for output %q", m.ID, p.Name)
		}
		if !typesys.Conforms(v, p.Struct) {
			return nil, fmt.Errorf("module %s: output %q = %s does not conform to %s", m.ID, p.Name, v, p.Struct)
		}
	}
	if len(outs) != len(m.Outputs) {
		extra := make([]string, 0, 1)
		for name := range outs {
			if _, ok := m.Output(name); !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("module %s: executor returned undeclared outputs %v", m.ID, extra)
	}
	return outs, nil
}
