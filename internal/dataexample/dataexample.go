// Package dataexample implements the data-example model of the paper (§2):
// a data example δ = ⟨I, O⟩ records concrete input values I consumed by a
// module together with the output values O the invocation delivered. A set
// ∆(m) of data examples annotates the behaviour of module m.
//
// Each example additionally remembers which ontology partition every input
// value was drawn from and which partition every output value realises;
// the generation heuristic fills the former, the coverage analysis the
// latter. Examples are value-immutable and have deterministic canonical
// keys so that sets can be aligned across modules (the map∆ mapping of §6
// pairs examples with identical input values).
package dataexample

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dexa/internal/typesys"
)

// Example is one data example δ = ⟨I, O⟩.
type Example struct {
	// Inputs maps input parameter names to the concrete values fed to the
	// module.
	Inputs map[string]typesys.Value
	// Outputs maps output parameter names to the values the invocation
	// produced.
	Outputs map[string]typesys.Value
	// InputPartitions maps input parameter names to the ontology concept
	// (partition) the value was selected from.
	InputPartitions map[string]string
	// OutputPartitions maps output parameter names to the most specific
	// concept the produced value realises, when known.
	OutputPartitions map[string]string
}

// Set is ∆(m): the data examples annotating one module.
type Set []Example

// InputKey returns a deterministic canonical encoding of the example's
// input assignment. Two examples with equal input values (over the same
// parameter names) have equal keys; this implements the alignment map∆ of
// §6.
func (e Example) InputKey() string { return canonicalAssignment(e.Inputs) }

// OutputKey returns the canonical encoding of the output assignment.
func (e Example) OutputKey() string { return canonicalAssignment(e.Outputs) }

// PartitionKey returns a deterministic encoding of the input partition
// combination the example covers, e.g. "err=Percentage;masses=PeptideMassList".
func (e Example) PartitionKey() string {
	names := make([]string, 0, len(e.InputPartitions))
	for n := range e.InputPartitions {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(e.InputPartitions[n])
	}
	return b.String()
}

func canonicalAssignment(vals map[string]typesys.Value) string {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%d:%s=", len(n), n)
		b.WriteString(typesys.Canonical(vals[n]))
		b.WriteByte('|')
	}
	return b.String()
}

// Equal reports deep equality of inputs and outputs (partition metadata is
// descriptive and not part of example identity).
func (e Example) Equal(f Example) bool {
	return e.InputKey() == f.InputKey() && e.OutputKey() == f.OutputKey()
}

// SameOutputs reports whether the two examples produced identical outputs.
func (e Example) SameOutputs(f Example) bool { return e.OutputKey() == f.OutputKey() }

// String renders the example for human inspection, e.g. in the explore CLI.
func (e Example) String() string {
	var b strings.Builder
	b.WriteString("inputs{")
	writeAssignment(&b, e.Inputs)
	b.WriteString("} -> outputs{")
	writeAssignment(&b, e.Outputs)
	b.WriteByte('}')
	return b.String()
}

func writeAssignment(b *strings.Builder, vals map[string]typesys.Value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n)
		b.WriteString(": ")
		b.WriteString(vals[n].String())
	}
}

// ByInputKey indexes the set by input key. Later duplicates of the same
// key are dropped (generation never produces them).
func (s Set) ByInputKey() map[string]Example {
	idx := make(map[string]Example, len(s))
	for _, e := range s {
		k := e.InputKey()
		if _, dup := idx[k]; !dup {
			idx[k] = e
		}
	}
	return idx
}

// wireExample is the JSON persistence form.
type wireExample struct {
	Inputs           map[string]json.RawMessage `json:"inputs"`
	Outputs          map[string]json.RawMessage `json:"outputs"`
	InputPartitions  map[string]string          `json:"inputPartitions,omitempty"`
	OutputPartitions map[string]string          `json:"outputPartitions,omitempty"`
}

// MarshalJSON encodes the example with tagged values. The encoding is
// deterministic by construction — object keys are written in sorted
// order explicitly rather than relying on encoding/json's map behaviour —
// because the example store derives content-addressed hashes and golden
// wire formats from these bytes: the same example set must encode to the
// same bytes on every run, forever.
func (e Example) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"inputs":`)
	if err := writeValueObject(&b, e.Inputs, "input"); err != nil {
		return nil, err
	}
	b.WriteString(`,"outputs":`)
	if err := writeValueObject(&b, e.Outputs, "output"); err != nil {
		return nil, err
	}
	if len(e.InputPartitions) > 0 {
		b.WriteString(`,"inputPartitions":`)
		writeStringObject(&b, e.InputPartitions)
	}
	if len(e.OutputPartitions) > 0 {
		b.WriteString(`,"outputPartitions":`)
		writeStringObject(&b, e.OutputPartitions)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// writeValueObject writes the assignment as a JSON object with keys in
// sorted order and tagged values.
func writeValueObject(b *bytes.Buffer, vals map[string]typesys.Value, role string) error {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		key, err := json.Marshal(n)
		if err != nil {
			return fmt.Errorf("dataexample: %s %q: %w", role, n, err)
		}
		b.Write(key)
		b.WriteByte(':')
		data, err := typesys.MarshalValue(vals[n])
		if err != nil {
			return fmt.Errorf("dataexample: %s %q: %w", role, n, err)
		}
		b.Write(data)
	}
	b.WriteByte('}')
	return nil
}

// writeStringObject writes the string map as a JSON object with keys in
// sorted order.
func writeStringObject(b *bytes.Buffer, m map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		key, _ := json.Marshal(n)
		b.Write(key)
		b.WriteByte(':')
		val, _ := json.Marshal(m[n])
		b.Write(val)
	}
	b.WriteByte('}')
}

// UnmarshalJSON decodes the example.
func (e *Example) UnmarshalJSON(data []byte) error {
	var w wireExample
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dataexample: %w", err)
	}
	e.Inputs = make(map[string]typesys.Value, len(w.Inputs))
	for n, raw := range w.Inputs {
		v, err := typesys.UnmarshalValue(raw)
		if err != nil {
			return fmt.Errorf("dataexample: input %q: %w", n, err)
		}
		e.Inputs[n] = v
	}
	e.Outputs = make(map[string]typesys.Value, len(w.Outputs))
	for n, raw := range w.Outputs {
		v, err := typesys.UnmarshalValue(raw)
		if err != nil {
			return fmt.Errorf("dataexample: output %q: %w", n, err)
		}
		e.Outputs[n] = v
	}
	e.InputPartitions = w.InputPartitions
	e.OutputPartitions = w.OutputPartitions
	return nil
}
