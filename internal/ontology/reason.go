package ontology

import (
	"fmt"
	"sort"
)

// Subsumes reports whether sup ⊒ sub, i.e. sub is sup itself or a
// (transitive) subconcept of sup. Unknown concepts never subsume or get
// subsumed. The answer is a bit test against the lazily-built reachability
// cache, not a graph walk.
func (o *Ontology) Subsumes(supID, subID string) bool {
	return o.reach().subsumes(supID, subID)
}

// walkSubsumes is the cache-free subsumption check, used by mutators
// (whose cycle checks must not trigger a closure rebuild per edge).
func (o *Ontology) walkSubsumes(supID, subID string) bool {
	sub, ok := o.concepts[subID]
	if !ok || !o.Has(supID) {
		return false
	}
	if supID == subID {
		return true
	}
	// Walk up from sub.
	seen := map[*Concept]bool{sub: true}
	stack := []*Concept{sub}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range c.parents {
			if p.ID == supID {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// StrictlySubsumes reports sup ⊐ sub (subsumption excluding equality).
func (o *Ontology) StrictlySubsumes(supID, subID string) bool {
	return supID != subID && o.Subsumes(supID, subID)
}

// Descendants returns the IDs of all strict subconcepts of id in sorted
// order. It returns nil for an unknown concept. The result is a fresh copy
// of the cached closure; callers may keep or modify it.
func (o *Ontology) Descendants(id string) []string {
	r := o.reach()
	i, ok := r.index[id]
	if !ok {
		return nil
	}
	return copyOf(r.descIDs[i])
}

// AncestorsView returns the IDs of all strict superconcepts of id in
// sorted order, or nil for an unknown concept. It returns the cached
// closure slice itself, valid until the next mutation: callers MUST treat
// the result as read-only — it is shared with every other caller and
// with the cache.
func (o *Ontology) AncestorsView(id string) []string {
	r := o.reach()
	i, ok := r.index[id]
	if !ok {
		return nil
	}
	return r.ancIDs[i]
}

// DescendantsView is Descendants without the defensive copy; the same
// read-only contract as AncestorsView applies.
func (o *Ontology) DescendantsView(id string) []string {
	r := o.reach()
	i, ok := r.index[id]
	if !ok {
		return nil
	}
	return r.descIDs[i]
}

// Depth returns the length of the shortest parent chain from id to any
// root, or -1 for an unknown concept. Roots have depth 0.
func (o *Ontology) Depth(id string) int {
	c, ok := o.concepts[id]
	if !ok {
		return -1
	}
	depth := 0
	frontier := []*Concept{c}
	seen := map[*Concept]bool{c: true}
	for len(frontier) > 0 {
		var next []*Concept
		for _, n := range frontier {
			if len(n.parents) == 0 {
				return depth
			}
			for _, p := range n.parents {
				if !seen[p] {
					seen[p] = true
					next = append(next, p)
				}
			}
		}
		frontier = next
		depth++
	}
	return depth // unreachable in an acyclic ontology
}

// Partitions returns the equivalence partitions induced by annotating a
// parameter with the concept id: one partition per non-abstract concept in
// {id} ∪ descendants(id), in sorted order (paper §3.1/§3.2). Abstract
// concepts are excluded because they admit no realization; their domains
// are represented by the partitions of their subconcepts. It returns an
// error for an unknown concept.
func (o *Ontology) Partitions(id string) ([]string, error) {
	r := o.reach()
	i, ok := r.index[id]
	if !ok {
		return nil, fmt.Errorf("ontology %s: unknown concept %q", o.name, id)
	}
	return copyOf(r.partitions[i]), nil
}

// LeafPartitions returns only the leaf concepts under id (including id
// itself when it is a leaf), sorted. This is the alternative partitioning
// strategy evaluated by the ablation bench: it ignores realizations of
// inner concepts.
func (o *Ontology) LeafPartitions(id string) ([]string, error) {
	r := o.reach()
	i, ok := r.index[id]
	if !ok {
		return nil, fmt.Errorf("ontology %s: unknown concept %q", o.name, id)
	}
	return copyOf(r.leafParts[i]), nil
}

// MostSpecific returns, from the given concept IDs, those that are not
// strict superconcepts of any other member, sorted. Used when classifying a
// value that is an instance of several concepts.
func (o *Ontology) MostSpecific(ids []string) []string {
	var out []string
	for _, c := range ids {
		if !o.Has(c) {
			continue
		}
		specific := true
		for _, d := range ids {
			if c != d && o.StrictlySubsumes(c, d) {
				specific = false
				break
			}
		}
		if specific {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks structural invariants: every non-root concept reaches a
// root, and the graph is acyclic (guaranteed by construction, re-verified
// here for ontologies assembled from parsed files).
func (o *Ontology) Validate() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[*Concept]int, len(o.concepts))
	var visit func(c *Concept) error
	visit = func(c *Concept) error {
		switch color[c] {
		case grey:
			return fmt.Errorf("ontology %s: cycle through concept %q", o.name, c.ID)
		case black:
			return nil
		}
		color[c] = grey
		for _, ch := range c.children {
			if err := visit(ch); err != nil {
				return err
			}
		}
		color[c] = black
		return nil
	}
	for _, id := range o.Roots() {
		if err := visit(o.concepts[id]); err != nil {
			return err
		}
	}
	for id, c := range o.concepts {
		if color[c] != black {
			return fmt.Errorf("ontology %s: concept %q unreachable from any root", o.name, id)
		}
	}
	return nil
}
