// Package ontology implements the domain-ontology substrate used to
// annotate module parameters with semantic types.
//
// The paper's heuristic partitions the domain of a parameter annotated with
// concept c into the sub-domains of all concepts subsumed by c (paper §3.1),
// and selects for each partition a *realization* — an instance of the
// concept that is not an instance of any strict subconcept (§3.2, after
// Koide & Takeda). Concepts whose domain is entirely covered by their
// subconcepts admit no realization; we model these with an Abstract flag and
// exclude them from the partition list, exactly as the paper prescribes
// ("we do not create a data example for such a concept, since it is
// represented by the data examples of its subconcepts").
//
// An Ontology is a rooted DAG of named concepts connected by the subsumption
// relationship (a concept may have several parents, as in OWL class
// hierarchies). All traversals return deterministic orders so that the
// generation heuristic and the experiment harness are reproducible.
package ontology

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Concept is a node in the ontology: a named class of data values.
type Concept struct {
	// ID is the unique identifier, e.g. "ProteinSequence".
	ID string
	// Label is an optional human-readable name, e.g. "Protein sequence".
	Label string
	// Abstract marks a concept whose domain is fully covered by the domains
	// of its subconcepts, so that no realization of the concept itself
	// exists and no partition is created for it.
	Abstract bool

	parents  []*Concept
	children []*Concept
}

// Ontology is a mutable concept DAG. The zero value is not usable; call New.
//
// Concurrency: an Ontology is not safe for concurrent mutation, and
// mutation must not race with reads. Once construction is complete,
// concurrent reads from any number of goroutines are safe — including the
// first reasoning call, which lazily builds the reachability cache under
// an internal mutex (see cache.go). Mutating after construction is
// allowed from a single goroutine with no concurrent readers; the mutators
// invalidate the cache automatically, and InvalidateCaches covers direct
// field edits such as Concept.Abstract.
type Ontology struct {
	name     string
	concepts map[string]*Concept
	order    []string // insertion order, for deterministic serialisation

	// Lazily-built transitive-closure index; nil until the first reasoning
	// query after construction or invalidation.
	cacheMu sync.Mutex
	cache   atomic.Pointer[reachability]

	// Cache telemetry: reasoning calls served by the prebuilt index vs
	// full rebuilds (see CacheStats).
	cacheHits   atomic.Uint64
	cacheBuilds atomic.Uint64
}

// New creates an empty ontology with the given name.
func New(name string) *Ontology {
	return &Ontology{name: name, concepts: make(map[string]*Concept)}
}

// AddConcept inserts a concept under the given parent IDs (none for a
// root). It returns an error if the ID is empty or already present, if a
// parent is unknown, or if the edge would create a cycle (impossible when
// parents pre-exist, but kept for AddSubsumption symmetry).
func (o *Ontology) AddConcept(id, label string, parentIDs ...string) error {
	if err := validateConceptID(id); err != nil {
		return fmt.Errorf("ontology %s: %w", o.name, err)
	}
	if _, dup := o.concepts[id]; dup {
		return fmt.Errorf("ontology %s: duplicate concept %q", o.name, id)
	}
	ps := make([]*Concept, 0, len(parentIDs))
	for _, pid := range parentIDs {
		p, ok := o.concepts[pid]
		if !ok {
			return fmt.Errorf("ontology %s: unknown parent %q for concept %q", o.name, pid, id)
		}
		ps = append(ps, p)
	}
	c := &Concept{ID: id, Label: label, parents: ps}
	for _, p := range ps {
		p.children = append(p.children, c)
	}
	o.concepts[id] = c
	o.order = append(o.order, id)
	o.invalidate()
	return nil
}

// validateConceptID enforces that concept IDs survive the textual
// serialisation: no whitespace, no leading '#' (comment marker), and not
// one of the directive keywords.
func validateConceptID(id string) error {
	if id == "" {
		return fmt.Errorf("empty concept ID")
	}
	if strings.ContainsAny(id, " \t\n\r") {
		return fmt.Errorf("concept ID %q contains whitespace", id)
	}
	if id[0] == '#' {
		return fmt.Errorf("concept ID %q starts with the comment marker", id)
	}
	if id == "subsume" || id == "ontology" {
		return fmt.Errorf("concept ID %q collides with a directive keyword", id)
	}
	return nil
}

// MustAddConcept is AddConcept but panics on error; for static ontologies.
func (o *Ontology) MustAddConcept(id, label string, parentIDs ...string) {
	if err := o.AddConcept(id, label, parentIDs...); err != nil {
		panic(err)
	}
}

// AddSubsumption records an additional parent edge sub < sup between two
// existing concepts (used for DAG-shaped hierarchies). It rejects unknown
// concepts, duplicate edges, self-edges and edges that would create a cycle.
func (o *Ontology) AddSubsumption(subID, supID string) error {
	sub, ok := o.concepts[subID]
	if !ok {
		return fmt.Errorf("ontology %s: unknown concept %q", o.name, subID)
	}
	sup, ok := o.concepts[supID]
	if !ok {
		return fmt.Errorf("ontology %s: unknown concept %q", o.name, supID)
	}
	if subID == supID {
		return fmt.Errorf("ontology %s: self subsumption on %q", o.name, subID)
	}
	for _, p := range sub.parents {
		if p == sup {
			return fmt.Errorf("ontology %s: duplicate edge %q < %q", o.name, subID, supID)
		}
	}
	// Cycle check via the uncached graph walk: construction would otherwise
	// rebuild the closure once per added edge.
	if o.walkSubsumes(subID, supID) {
		return fmt.Errorf("ontology %s: edge %q < %q would create a cycle", o.name, subID, supID)
	}
	sub.parents = append(sub.parents, sup)
	sup.children = append(sup.children, sub)
	o.invalidate()
	return nil
}

// MarkAbstract flags the concept as abstract (no realization of its own).
func (o *Ontology) MarkAbstract(id string) error {
	c, ok := o.concepts[id]
	if !ok {
		return fmt.Errorf("ontology %s: unknown concept %q", o.name, id)
	}
	c.Abstract = true
	o.invalidate()
	return nil
}

// Concept returns the concept with the given ID, if present.
func (o *Ontology) Concept(id string) (*Concept, bool) {
	c, ok := o.concepts[id]
	return c, ok
}

// Has reports whether the concept exists.
func (o *Ontology) Has(id string) bool {
	_, ok := o.concepts[id]
	return ok
}

// Concepts returns all concept IDs in sorted order.
func (o *Ontology) Concepts() []string {
	ids := make([]string, 0, len(o.concepts))
	for id := range o.concepts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Roots returns the IDs of concepts without parents, sorted.
func (o *Ontology) Roots() []string {
	var roots []string
	for id, c := range o.concepts {
		if len(c.parents) == 0 {
			roots = append(roots, id)
		}
	}
	sort.Strings(roots)
	return roots
}

// IsLeaf reports whether the concept exists and has no subconcepts.
func (o *Ontology) IsLeaf(id string) bool {
	c, ok := o.concepts[id]
	return ok && len(c.children) == 0
}
