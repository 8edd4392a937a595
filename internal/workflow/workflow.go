// Package workflow implements the scientific-workflow substrate the paper
// operates in (§1, §6): workflows are DAGs whose steps invoke scientific
// modules and whose edges carry data between module ports, in the style of
// Taverna/Galaxy. The package provides the model, structural and semantic
// validation, an enactment engine with provenance capture, detection of
// decayed (broken) workflows, and data-example-driven repair.
package workflow

import (
	"fmt"
	"sort"

	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/typesys"
)

// Port declares a workflow-level input or output.
type Port struct {
	Name     string
	Struct   typesys.Type
	Semantic string
}

// PortRef addresses a data port: a step's parameter, or (with Step == "")
// a workflow-level port.
type PortRef struct {
	Step string
	Port string
}

// String renders "step.port" or ":port" for workflow-level ports.
func (r PortRef) String() string {
	if r.Step == "" {
		return ":" + r.Port
	}
	return r.Step + "." + r.Port
}

// Link is a data-flow edge from a producer port to a consumer port.
type Link struct {
	From PortRef
	To   PortRef
}

// Step is one workflow node: an invocation of a module, with optional
// constant bindings for parameters that are fixed at design time (e.g. the
// "program" and "database" parameters of SearchSimple in Figure 1).
type Step struct {
	ID       string
	ModuleID string
	// Constants binds input parameters to fixed values.
	Constants map[string]typesys.Value
}

// Workflow is a DAG of steps connected by data links.
type Workflow struct {
	ID    string
	Name  string
	Steps []Step
	Links []Link
	// Inputs and Outputs are the workflow-level ports.
	Inputs  []Port
	Outputs []Port
}

// Step returns the step with the given ID.
func (w *Workflow) Step(id string) (*Step, bool) {
	for i := range w.Steps {
		if w.Steps[i].ID == id {
			return &w.Steps[i], true
		}
	}
	return nil, false
}

// Input returns the workflow input port with the given name.
func (w *Workflow) Input(name string) (Port, bool) { return findPort(w.Inputs, name) }

// Output returns the workflow output port with the given name.
func (w *Workflow) Output(name string) (Port, bool) { return findPort(w.Outputs, name) }

func findPort(ps []Port, name string) (Port, bool) {
	for _, p := range ps {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// ModuleIDs returns the distinct module IDs referenced by the workflow,
// sorted.
func (w *Workflow) ModuleIDs() []string {
	seen := map[string]bool{}
	for _, s := range w.Steps {
		seen[s.ModuleID] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// incomingLinks returns the links feeding each step, keyed by step ID,
// plus the links feeding workflow outputs under the "" key.
func (w *Workflow) incomingLinks() map[string][]Link {
	in := map[string][]Link{}
	for _, l := range w.Links {
		in[l.To.Step] = append(in[l.To.Step], l)
	}
	return in
}

// TopoOrder returns the step IDs in a deterministic topological order
// (ready steps by ID), or an error when the link graph is cyclic.
func (w *Workflow) TopoOrder() ([]string, error) {
	deps := map[string]map[string]bool{}
	for _, s := range w.Steps {
		deps[s.ID] = map[string]bool{}
	}
	for _, l := range w.Links {
		if l.From.Step == "" || l.To.Step == "" {
			continue
		}
		// Links naming unknown steps are reported by Validate's link
		// resolution; ignore them here so ordering stays total.
		if _, ok := deps[l.To.Step]; !ok {
			continue
		}
		if _, ok := deps[l.From.Step]; !ok {
			continue
		}
		deps[l.To.Step][l.From.Step] = true
	}
	var order []string
	done := map[string]bool{}
	for len(order) < len(w.Steps) {
		var ready []string
		for id, ds := range deps {
			if done[id] {
				continue
			}
			ok := true
			for d := range ds {
				if !done[d] {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, id)
			}
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("workflow %s: cyclic data links", w.ID)
		}
		sort.Strings(ready)
		for _, id := range ready {
			done[id] = true
			order = append(order, id)
		}
	}
	return order, nil
}

// Validate checks the workflow against a registry and ontology: every step
// references a registered module; link endpoints exist with compatible
// structural types and semantically compatible concepts (the consumer's
// concept must subsume the producer's, so everything that can flow is
// acceptable); every required step input is fed by exactly one link or
// constant; every workflow output is fed; and the graph is acyclic.
// Availability is deliberately not checked — see BrokenSteps.
func (w *Workflow) Validate(reg *registry.Registry, ont *ontology.Ontology) error {
	if w.ID == "" {
		return fmt.Errorf("workflow: empty ID")
	}
	if len(w.Steps) == 0 {
		return fmt.Errorf("workflow %s: no steps", w.ID)
	}
	seen := map[string]bool{}
	for _, s := range w.Steps {
		if s.ID == "" {
			return fmt.Errorf("workflow %s: empty step ID", w.ID)
		}
		if seen[s.ID] {
			return fmt.Errorf("workflow %s: duplicate step %q", w.ID, s.ID)
		}
		seen[s.ID] = true
		if _, ok := reg.Get(s.ModuleID); !ok {
			return fmt.Errorf("workflow %s: step %s references unknown module %q", w.ID, s.ID, s.ModuleID)
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	for _, l := range w.Links {
		fromStruct, fromSem, err := w.resolveSource(reg, l.From)
		if err != nil {
			return err
		}
		toStruct, toSem, toOptional, err := w.resolveSink(reg, l.To)
		if err != nil {
			return err
		}
		_ = toOptional
		if !fromStruct.Equal(toStruct) {
			return fmt.Errorf("workflow %s: link %s -> %s: structural mismatch %s vs %s", w.ID, l.From, l.To, fromStruct, toStruct)
		}
		if fromSem != "" && toSem != "" && !ont.Subsumes(toSem, fromSem) {
			return fmt.Errorf("workflow %s: link %s -> %s: semantic mismatch: %s does not subsume %s", w.ID, l.From, l.To, toSem, fromSem)
		}
	}
	// Required inputs fed exactly once.
	fed := map[string]int{}
	for _, l := range w.Links {
		fed[l.To.String()]++
	}
	for _, s := range w.Steps {
		e, _ := reg.Get(s.ModuleID)
		for _, p := range e.Module.Inputs {
			key := PortRef{Step: s.ID, Port: p.Name}.String()
			n := fed[key]
			if _, isConst := s.Constants[p.Name]; isConst {
				n++
			}
			if n > 1 {
				return fmt.Errorf("workflow %s: input %s fed %d times", w.ID, key, n)
			}
			if n == 0 && !p.Optional {
				return fmt.Errorf("workflow %s: required input %s not fed", w.ID, key)
			}
		}
		for name := range s.Constants {
			if _, ok := e.Module.Input(name); !ok {
				return fmt.Errorf("workflow %s: step %s constant for unknown input %q", w.ID, s.ID, name)
			}
		}
	}
	for _, p := range w.Outputs {
		if fed[PortRef{Port: p.Name}.String()] != 1 {
			return fmt.Errorf("workflow %s: output %s must be fed exactly once", w.ID, p.Name)
		}
	}
	return nil
}

// resolveSource returns the structural and semantic type of a producer
// port (a workflow input or a step output).
func (w *Workflow) resolveSource(reg *registry.Registry, r PortRef) (typesys.Type, string, error) {
	if r.Step == "" {
		p, ok := w.Input(r.Port)
		if !ok {
			return typesys.Type{}, "", fmt.Errorf("workflow %s: unknown workflow input %q", w.ID, r.Port)
		}
		return p.Struct, p.Semantic, nil
	}
	s, ok := w.Step(r.Step)
	if !ok {
		return typesys.Type{}, "", fmt.Errorf("workflow %s: link from unknown step %q", w.ID, r.Step)
	}
	e, ok := reg.Get(s.ModuleID)
	if !ok {
		return typesys.Type{}, "", fmt.Errorf("workflow %s: step %s module %q not registered", w.ID, r.Step, s.ModuleID)
	}
	p, ok := e.Module.Output(r.Port)
	if !ok {
		return typesys.Type{}, "", fmt.Errorf("workflow %s: module %s has no output %q", w.ID, s.ModuleID, r.Port)
	}
	return p.Struct, p.Semantic, nil
}

// resolveSink returns the structural and semantic type of a consumer port
// (a step input or a workflow output).
func (w *Workflow) resolveSink(reg *registry.Registry, r PortRef) (typesys.Type, string, bool, error) {
	if r.Step == "" {
		p, ok := w.Output(r.Port)
		if !ok {
			return typesys.Type{}, "", false, fmt.Errorf("workflow %s: unknown workflow output %q", w.ID, r.Port)
		}
		return p.Struct, p.Semantic, false, nil
	}
	s, ok := w.Step(r.Step)
	if !ok {
		return typesys.Type{}, "", false, fmt.Errorf("workflow %s: link to unknown step %q", w.ID, r.Step)
	}
	e, ok := reg.Get(s.ModuleID)
	if !ok {
		return typesys.Type{}, "", false, fmt.Errorf("workflow %s: step %s module %q not registered", w.ID, r.Step, s.ModuleID)
	}
	p, ok := e.Module.Input(r.Port)
	if !ok {
		return typesys.Type{}, "", false, fmt.Errorf("workflow %s: module %s has no input %q", w.ID, s.ModuleID, r.Port)
	}
	return p.Struct, p.Semantic, p.Optional, nil
}

// BrokenSteps returns the IDs of steps whose modules are missing or
// unavailable — the workflow-decay condition. The workflow is enactable
// iff the result is empty.
func (w *Workflow) BrokenSteps(reg *registry.Registry) []string {
	var broken []string
	for _, s := range w.Steps {
		m, available, ok := reg.Lookup(s.ModuleID)
		if !ok || !available || !m.Bound() {
			broken = append(broken, s.ID)
		}
	}
	sort.Strings(broken)
	return broken
}

// Clone returns a deep copy of the workflow (repair rewrites clones).
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{ID: w.ID, Name: w.Name}
	c.Steps = make([]Step, len(w.Steps))
	for i, s := range w.Steps {
		cs := Step{ID: s.ID, ModuleID: s.ModuleID}
		if s.Constants != nil {
			cs.Constants = make(map[string]typesys.Value, len(s.Constants))
			for k, v := range s.Constants {
				cs.Constants[k] = v
			}
		}
		c.Steps[i] = cs
	}
	c.Links = append([]Link(nil), w.Links...)
	c.Inputs = append([]Port(nil), w.Inputs...)
	c.Outputs = append([]Port(nil), w.Outputs...)
	return c
}
