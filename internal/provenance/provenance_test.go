package provenance

import (
	"fmt"
	"sync"
	"testing"

	"dexa/internal/ontology"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

func rec(wf, step, mod string, seq int, in, out string) workflow.InvocationRecord {
	return workflow.InvocationRecord{
		WorkflowID: wf, StepID: step, ModuleID: mod, Seq: seq,
		Inputs:         map[string]typesys.Value{"acc": typesys.Str(in)},
		Outputs:        map[string]typesys.Value{"rec": typesys.Str(out)},
		InputConcepts:  map[string]string{"acc": "Accession"},
		OutputConcepts: map[string]string{"rec": "Record"},
	}
}

func testOnt(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Accession", "", "Data")
	o.MustAddConcept("Record", "", "Data")
	return o
}

func TestCorpusBasics(t *testing.T) {
	c := NewCorpus()
	c.OnInvocation(rec("wf1", "s1", "getRecord", 1, "P1", "R1"))
	c.OnInvocation(rec("wf2", "s1", "getRecord", 1, "P2", "R2"))
	c.OnInvocation(rec("wf2", "s2", "identify", 2, "P3", "R3"))
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	recs := c.Records()
	recs[0].ModuleID = "mutated"
	if c.Records()[0].ModuleID != "getRecord" {
		t.Error("Records should return a copy")
	}
}

func TestHarvest(t *testing.T) {
	c := NewCorpus()
	c.OnInvocation(rec("wf1", "s1", "m", 1, "P1", "R1"))
	c.OnInvocation(rec("wf1", "s1", "m", 2, "P1", "R1")) // duplicate values
	c.OnInvocation(rec("wf1", "s1", "m", 3, "P2", "R2"))
	failed := rec("wf1", "s2", "m", 4, "P9", "R9")
	failed.Failed = true
	c.OnInvocation(failed)
	// A record with an unannotated parameter and an unknown concept.
	odd := workflow.InvocationRecord{
		WorkflowID: "wf1", StepID: "s3", ModuleID: "m", Seq: 5,
		Inputs:         map[string]typesys.Value{"x": typesys.Str("v"), "y": typesys.Str("w"), "z": typesys.Null},
		Outputs:        map[string]typesys.Value{},
		InputConcepts:  map[string]string{"x": "", "y": "Mystery", "z": "Accession"},
		OutputConcepts: map[string]string{},
	}
	c.OnInvocation(odd)

	pool, added := c.Harvest(testOnt(t))
	// P1, R1, P2, R2 -> 4 distinct instances; failed and odd contribute none
	// (unannotated, unknown concept, null value).
	if added != 4 || pool.Len() != 4 {
		t.Errorf("added = %d, pool = %d", added, pool.Len())
	}
	ins := pool.Direct("Accession")
	if len(ins) != 2 {
		t.Errorf("accessions = %v", ins)
	}
	if ins[0].Source == "" {
		t.Error("source not recorded")
	}
	// HarvestInto merges into an existing pool without duplicating.
	n := c.HarvestInto(pool)
	if n != 0 || pool.Len() != 4 {
		t.Errorf("HarvestInto added %d, pool %d", n, pool.Len())
	}
}

func TestExamplesFor(t *testing.T) {
	c := NewCorpus()
	c.OnInvocation(rec("wf1", "s1", "m", 1, "P1", "R1"))
	c.OnInvocation(rec("wf2", "s9", "m", 1, "P1", "R1")) // same inputs: dedup
	c.OnInvocation(rec("wf1", "s1", "m", 2, "P2", "R2"))
	c.OnInvocation(rec("wf1", "s1", "other", 1, "P3", "R3"))
	failed := rec("wf1", "s1", "m", 3, "P4", "R4")
	failed.Failed = true
	c.OnInvocation(failed)

	set := c.ExamplesFor("m")
	if len(set) != 2 {
		t.Fatalf("examples = %d", len(set))
	}
	if set[0].InputPartitions["acc"] != "Accession" || set[0].OutputPartitions["rec"] != "Record" {
		t.Errorf("partition hints = %+v", set[0])
	}
	if got := c.ExamplesFor("ghost"); len(got) != 0 {
		t.Errorf("unknown module examples = %v", got)
	}
	set2, ok := c.Source("m")
	if !ok || len(set2) != 2 {
		t.Errorf("Source = %v, %v", set2, ok)
	}
	if _, ok := c.Source("ghost"); ok {
		t.Error("Source for unknown module should report false")
	}
}

func TestCorpusConcurrency(t *testing.T) {
	c := NewCorpus()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.OnInvocation(rec(fmt.Sprintf("wf%d", g), "s", "m", i, fmt.Sprintf("P%d-%d", g, i), "R"))
				c.Len()
				c.ExamplesFor("m")
				c.Records()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 400 {
		t.Errorf("Len = %d", c.Len())
	}
}
