// Package instances implements the pool of annotated instances the
// generation heuristic draws input values from (paper §3.2).
//
// Each instance pairs a concrete value with the most specific ontology
// concept it instantiates (pools are harvested from provenance traces of
// modules whose parameters are annotated, so the annotation level is the
// parameter's concept). The pool answers the paper's getInstance(c, pl)
// query: return a *realization* of concept c — an instance of c that is
// not an instance of any strict subconcept — whose structural grounding is
// compatible with the requesting parameter.
//
// Selection is deterministic: instances under a concept keep insertion
// order and are addressed by index. Determinism matters twice — it makes
// experiments reproducible, and it implements the §6 requirement that two
// modules being compared receive *the same* input values per partition.
package instances

import (
	"fmt"
	"sort"
	"sync"

	"dexa/internal/ontology"
	"dexa/internal/typesys"
)

// Instance is one annotated value in the pool.
type Instance struct {
	// Concept is the most specific ontology concept the value instantiates.
	Concept string
	// Value is the concrete data value.
	Value typesys.Value
	// Source records where the instance was harvested from, e.g.
	// "trace:wf-0042/step2/out". Purely informational.
	Source string
}

// Pool is a concurrency-safe pool of annotated instances over one ontology.
type Pool struct {
	ont *ontology.Ontology

	mu          sync.RWMutex
	byConcept   map[string][]Instance
	classifiers map[string]Classifier
	count       int
}

// NewPool creates an empty pool over the given ontology.
func NewPool(ont *ontology.Ontology) *Pool {
	return &Pool{ont: ont, byConcept: make(map[string][]Instance)}
}

// Ontology returns the ontology the pool is annotated against.
func (p *Pool) Ontology() *ontology.Ontology { return p.ont }

// Add inserts an instance annotated with the given concept. Duplicate
// values under the same concept are collapsed (pools harvested from
// provenance contain massive repetition). It returns an error for unknown
// concepts or nil values.
func (p *Pool) Add(concept string, v typesys.Value, source string) error {
	if v == nil {
		return fmt.Errorf("instances: nil value for concept %q", concept)
	}
	if !p.ont.Has(concept) {
		return fmt.Errorf("instances: unknown concept %q", concept)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	canon := typesys.Canonical(v)
	for _, in := range p.byConcept[concept] {
		if typesys.Canonical(in.Value) == canon {
			return nil // duplicate
		}
	}
	p.byConcept[concept] = append(p.byConcept[concept], Instance{Concept: concept, Value: v, Source: source})
	p.count++
	return nil
}

// MustAdd is Add but panics on error; for static test pools.
func (p *Pool) MustAdd(concept string, v typesys.Value, source string) {
	if err := p.Add(concept, v, source); err != nil {
		panic(err)
	}
}

// Len returns the total number of (distinct) instances in the pool.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.count
}

// Concepts returns the sorted list of concepts that have at least one
// direct instance.
func (p *Pool) Concepts() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.byConcept))
	for c, ins := range p.byConcept {
		if len(ins) > 0 {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// Direct returns the instances annotated with exactly the given concept,
// in insertion order.
func (p *Pool) Direct(concept string) []Instance {
	p.mu.RLock()
	defer p.mu.RUnlock()
	ins := p.byConcept[concept]
	out := make([]Instance, len(ins))
	copy(out, ins)
	return out
}

// Realization returns the idx-th instance that realises concept c with a
// structural grounding compatible with str: an instance annotated with
// exactly c (instances annotated with strict subconcepts are instances of
// those subconcepts, not realizations of c) whose value conforms to str.
// The boolean reports whether such an instance exists.
func (p *Pool) Realization(c string, str typesys.Type, idx int) (Instance, bool) {
	if idx < 0 {
		return Instance{}, false
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, in := range p.byConcept[c] {
		if typesys.Conforms(in.Value, str) {
			if n == idx {
				return in, true
			}
			n++
		}
	}
	return Instance{}, false
}

// Classify returns the most specific concept(s), at or below the given
// root concept, whose direct instances contain the value. It is used by the
// output-coverage analysis to decide which output partition a produced
// value falls into. When the value is not in the pool, Classify falls back
// to the classifier registered for the root concept, if any (see
// RegisterClassifier); otherwise it returns nil.
func (p *Pool) Classify(root string, v typesys.Value) []string {
	if !p.ont.Has(root) || v == nil {
		return nil
	}
	canon := typesys.Canonical(v)
	ids := append([]string{root}, p.ont.Descendants(root)...)
	var hits []string
	p.mu.RLock()
	for _, id := range ids {
		for _, in := range p.byConcept[id] {
			if typesys.Canonical(in.Value) == canon {
				hits = append(hits, id)
				break
			}
		}
	}
	p.mu.RUnlock()
	if len(hits) > 0 {
		return p.ont.MostSpecific(hits)
	}
	p.mu.RLock()
	cl := p.classifiers[root]
	p.mu.RUnlock()
	if cl != nil {
		if c := cl(v); c != "" && p.ont.Has(c) {
			return []string{c}
		}
	}
	return nil
}

// Classifier maps a value to the most specific concept it instantiates, or
// "" when unknown. Classifiers supplement the pool for values produced by
// modules that never appeared in provenance.
type Classifier func(v typesys.Value) string

// RegisterClassifier installs a fallback classifier for values requested
// under the given root concept.
func (p *Pool) RegisterClassifier(root string, cl Classifier) error {
	if !p.ont.Has(root) {
		return fmt.Errorf("instances: unknown concept %q", root)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.classifiers == nil {
		p.classifiers = make(map[string]Classifier)
	}
	p.classifiers[root] = cl
	return nil
}
