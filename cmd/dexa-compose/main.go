// Command dexa-compose synthesizes verified workflows guided by data
// examples (the paper's §8 future-work item), under constraints:
//
//	dexa-compose -in DNASequence -out KEGGPathwayID
//	dexa-compose -in DNASequence -out AccessionList -avoid RNASequence
//	dexa-compose -in ProteinSequence -out AccessionList -like blastSearch
//	dexa-compose -in DNASequence -out AccessionList -save plans/
//
// Each plan chains signature-compatible modules from -in to -out; slots
// whose candidates are task-identical by signature (the Needleman-
// Wunsch / Smith-Waterman / k-mer aligner trio is the canonical case)
// are split into behavior classes by comparing generated data examples,
// so every emitted plan names which behaviorally distinct variant it
// uses and which modules are interchangeable with it. -use requires a
// concept to flow through the plan, -avoid excludes modules touching
// one, -like biases the ranking toward a module's observed behavior,
// and every plan is verified end-to-end by enacting it on a seed
// example. -save writes each plan's workflow artifact (workflow.Save
// wire format, runnable by the workflow enactor) into a directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dexa/internal/compose"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/simulation"
)

// multiFlag collects a repeatable -use/-avoid flag value.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*m = append(*m, part)
		}
	}
	return nil
}

func main() {
	in := flag.String("in", "", "workflow input concept")
	out := flag.String("out", "", "workflow output concept")
	var use, avoid multiFlag
	flag.Var(&use, "use", "concept that must flow through the plan (repeatable)")
	flag.Var(&avoid, "avoid", "concept no step parameter may touch (repeatable)")
	like := flag.String("like", "", "module ID whose observed behavior biases the ranking")
	depth := flag.Int("depth", 4, "maximum chain length")
	limit := flag.Int("limit", 10, "maximum plans to print")
	save := flag.String("save", "", "directory to write each plan's workflow artifact into")
	flag.Parse()

	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: dexa-compose -in <concept> -out <concept> [-use C] [-avoid C] [-like id] [-depth N] [-limit N] [-save dir]")
		os.Exit(2)
	}

	fmt.Fprintln(os.Stderr, "building experimental universe...")
	u := simulation.NewUniverse()
	runPlanner(u, compose.Constraints{
		In: *in, Out: *out,
		MustUse: use, MustAvoid: avoid,
		Like:     *like,
		MaxDepth: *depth, MaxPlans: *limit,
	}, *save)
}

// runPlanner synthesizes constraint-guided workflows over the simulated
// catalog, annotating modules on demand (memoized; generation is
// deterministic, so repeated runs emit byte-identical plans).
func runPlanner(u *simulation.Universe, cs compose.Constraints, saveDir string) {
	gen := core.NewCachedGenerator(u.Gen)
	p := &compose.Planner{
		Ont: u.Ont,
		Reg: u.Registry,
		Examples: func(id string) (dataexample.Set, bool) {
			e, ok := u.Registry.Get(id)
			if !ok {
				return nil, false
			}
			set, _, err := gen.Generate(e.Module)
			return set, err == nil && len(set) > 0
		},
	}
	plans, err := p.Plan(cs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(plans) == 0 {
		fmt.Printf("no plans from %s to %s within depth %d\n", cs.In, cs.Out, cs.MaxDepth)
		return
	}
	fmt.Printf("plans from %s to %s:\n\n", cs.In, cs.Out)
	for i, plan := range plans {
		status := "UNVERIFIED"
		if plan.Verified {
			status = "VERIFIED"
		}
		fmt.Printf("%d. [%s] %s\n", i+1, status, plan.Chain())
		for _, step := range plan.Steps {
			line := fmt.Sprintf("   %-28s", step.Module)
			if step.Alternatives > 1 {
				line += fmt.Sprintf(" (1 of %d behavior classes", step.Alternatives)
				if len(step.Equivalent) > 0 {
					line += "; interchangeable: " + strings.Join(step.Equivalent, ", ")
				}
				line += ")"
			} else if len(step.Equivalent) > 0 {
				line += " (interchangeable: " + strings.Join(step.Equivalent, ", ") + ")"
			}
			fmt.Println(line)
		}
		if plan.Rationale != "" {
			fmt.Printf("   rationale: %s\n", plan.Rationale)
		}
		keys := make([]string, 0, len(plan.Witness))
		for k := range plan.Witness {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("   witness %s = %s\n", k, plan.Witness[k])
		}
		if saveDir != "" && plan.Workflow != nil {
			if err := os.MkdirAll(saveDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(saveDir, fmt.Sprintf("plan-%02d.json", i+1))
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := plan.Workflow.Save(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("   saved: %s\n", path)
		}
		fmt.Println()
	}
}
