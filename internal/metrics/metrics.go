// Package metrics implements the paper's §4.2 quality measures for a set
// of data examples: completeness and conciseness relative to the module's
// ground-truth classes of behaviour, plus an aggregate evaluation record.
//
// A "class of behaviour" is not an ontology class: it is one of the tasks
// the module can perform depending on its inputs (§4.2). Ground truth is
// supplied through a BehaviorOracle — in the paper this came from module
// documentation interpreted by a domain expert; in this reproduction it
// comes from the synthetic catalog, which knows each module's behaviour
// function exactly.
package metrics

import (
	"sort"

	"dexa/internal/dataexample"
	"dexa/internal/typesys"
)

// BehaviorOracle exposes a module's ground-truth classes of behaviour.
type BehaviorOracle interface {
	// Classes returns the IDs of all behaviour classes of the module.
	Classes() []string
	// ClassOf maps an input assignment to the behaviour class the module
	// exhibits for it. The boolean is false when the inputs fall outside
	// the module's domain of definition (the invocation would fail).
	ClassOf(inputs map[string]typesys.Value) (string, bool)
}

// OracleFunc adapts a function plus a class list to the BehaviorOracle
// interface.
type OracleFunc struct {
	All []string
	Fn  func(inputs map[string]typesys.Value) (string, bool)
}

// Classes returns the configured class list.
func (o OracleFunc) Classes() []string { return o.All }

// ClassOf delegates to the configured function.
func (o OracleFunc) ClassOf(inputs map[string]typesys.Value) (string, bool) { return o.Fn(inputs) }

// Evaluation aggregates the §4.2 measures for one module's example set.
type Evaluation struct {
	// Examples is |∆(m)|.
	Examples int
	// Classes is the number of ground-truth behaviour classes.
	Classes int
	// ClassesCovered is how many of them at least one example exercises.
	ClassesCovered int
	// Redundant counts examples beyond the first within each class.
	Redundant int
	// Completeness = ClassesCovered / Classes (1 when Classes == 0).
	Completeness float64
	// Conciseness = 1 - Redundant/Examples (1 when Examples == 0).
	Conciseness float64
}

// CoveredClasses returns the sorted IDs of behaviour classes exercised by
// at least one example in the set.
func CoveredClasses(set dataexample.Set, oracle BehaviorOracle) []string {
	seen := map[string]bool{}
	for _, e := range set {
		if c, ok := oracle.ClassOf(e.Inputs); ok {
			seen[c] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// RedundantExamples counts the examples that are redundant: within each
// behaviour class, every example beyond the first describes behaviour
// already illustrated. Examples whose inputs the oracle cannot classify are
// treated as singletons (never redundant).
func RedundantExamples(set dataexample.Set, oracle BehaviorOracle) int {
	perClass := map[string]int{}
	redundant := 0
	for _, e := range set {
		c, ok := oracle.ClassOf(e.Inputs)
		if !ok {
			continue
		}
		perClass[c]++
		if perClass[c] > 1 {
			redundant++
		}
	}
	return redundant
}

// Evaluate computes all measures in one pass.
func Evaluate(set dataexample.Set, oracle BehaviorOracle) Evaluation {
	ev := Evaluation{
		Examples:       len(set),
		Classes:        len(oracle.Classes()),
		ClassesCovered: len(CoveredClasses(set, oracle)),
		Redundant:      RedundantExamples(set, oracle),
	}
	if ev.Classes == 0 {
		ev.Completeness = 1
	} else {
		ev.Completeness = float64(ev.ClassesCovered) / float64(ev.Classes)
	}
	if ev.Examples == 0 {
		ev.Conciseness = 1
	} else {
		ev.Conciseness = 1 - float64(ev.Redundant)/float64(ev.Examples)
	}
	return ev
}
