// Package provenance implements the workflow-provenance substrate the
// paper leans on twice (§4.1, §6): a corpus of execution traces in the
// style of the Taverna provenance corpus, recording the data values each
// module invocation consumed and produced together with the semantic
// annotations of the module's parameters.
//
// Two harvesting operations are provided:
//
//   - Harvest builds the pool of annotated instances that feeds example
//     generation (§4.1: "we made use of the Taverna workflow provenance
//     corpus ... thereby constructing the pool of annotated instances").
//   - ExamplesFor reconstructs data examples for a module straight from
//     its recorded invocations — the only way to characterise a module
//     that is no longer available (§6).
package provenance

import (
	"fmt"
	"sort"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/instances"
	"dexa/internal/ontology"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// Corpus is a concurrency-safe collection of invocation records. It
// implements workflow.Recorder, so wiring it into an Enactor captures
// traces automatically.
type Corpus struct {
	mu      sync.RWMutex
	records []workflow.InvocationRecord
}

// NewCorpus creates an empty corpus.
func NewCorpus() *Corpus { return &Corpus{} }

// OnInvocation appends a record; it implements workflow.Recorder.
func (c *Corpus) OnInvocation(rec workflow.InvocationRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records = append(c.records, rec)
}

// Len returns the number of records.
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.records)
}

// Records returns a copy of all records in capture order.
func (c *Corpus) Records() []workflow.InvocationRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]workflow.InvocationRecord, len(c.records))
	copy(out, c.records)
	return out
}

// Harvest builds a pool of annotated instances from every successful
// invocation: each input and output value is added under the concept
// annotating the corresponding module parameter. Values whose parameter
// carries no annotation, and concepts unknown to the ontology, are
// skipped. It returns the pool and the number of instances added.
func (c *Corpus) Harvest(ont *ontology.Ontology) (*instances.Pool, int) {
	pool := instances.NewPool(ont)
	added := 0
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.records {
		if r.Failed {
			continue
		}
		added += harvestSide(pool, r, r.Inputs, r.InputConcepts, "in")
		added += harvestSide(pool, r, r.Outputs, r.OutputConcepts, "out")
	}
	return pool, added
}

// HarvestInto merges the corpus into an existing pool (for pools built
// from several corpora, e.g. the public corpus plus project traces in §6).
func (c *Corpus) HarvestInto(pool *instances.Pool) int {
	added := 0
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.records {
		if r.Failed {
			continue
		}
		added += harvestSide(pool, r, r.Inputs, r.InputConcepts, "in")
		added += harvestSide(pool, r, r.Outputs, r.OutputConcepts, "out")
	}
	return added
}

func harvestSide(pool *instances.Pool, r workflow.InvocationRecord, vals map[string]typesys.Value, concepts map[string]string, side string) int {
	added := 0
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		concept := concepts[name]
		if concept == "" || !pool.Ontology().Has(concept) {
			continue
		}
		v := vals[name]
		if _, isNull := v.(typesys.NullValue); isNull {
			continue
		}
		src := fmt.Sprintf("trace:%s/%s/%s.%s", r.WorkflowID, r.StepID, side, name)
		before := pool.Len()
		if err := pool.Add(concept, v, src); err == nil && pool.Len() > before {
			added++
		}
	}
	return added
}

// ExamplesFor reconstructs the data examples of a module from its
// successful recorded invocations, de-duplicated by input assignment
// (first occurrence wins) and annotated with the recorded parameter
// concepts as partition hints.
func (c *Corpus) ExamplesFor(moduleID string) dataexample.Set {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var set dataexample.Set
	seen := map[string]bool{}
	for _, r := range c.records {
		if r.ModuleID != moduleID || r.Failed {
			continue
		}
		e := dataexample.Example{
			Inputs:           r.Inputs,
			Outputs:          r.Outputs,
			InputPartitions:  r.InputConcepts,
			OutputPartitions: r.OutputConcepts,
		}
		k := e.InputKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		set = append(set, e)
	}
	return set
}

// Source is ExamplesFor in the shape expected by workflow.ExamplesSource:
// the boolean reports whether any example could be reconstructed.
func (c *Corpus) Source(moduleID string) (dataexample.Set, bool) {
	set := c.ExamplesFor(moduleID)
	return set, len(set) > 0
}
