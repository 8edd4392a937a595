// Designer session: finding, understanding and composing modules.
//
// An experiment designer wants to go from a DNA sequence to the KEGG
// pathway its protein product belongs to. The session uses the module
// registry the way Figure 3 step 3 intends: search the registry, read
// annotation cards with data examples and behaviour hints, then let the
// planner (the paper's §8 future-work item) synthesize workflows, each
// verified by enactment on a stored data example.
//
// Run with: go run ./examples/designer
package main

import (
	"fmt"
	"log"
	"strings"

	"dexa/internal/compose"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/explore"
	"dexa/internal/simulation"
)

func main() {
	u := simulation.NewUniverse()

	// 1. Search the registry by keyword.
	fmt.Println("registry search for \"pathway\":")
	for _, m := range u.Registry.Search("pathway") {
		fmt.Printf("  %-24s %-22s %s\n", m.ID, m.Kind, m.Description)
	}

	// 2. Open the annotation card of a candidate to understand it.
	entry, _ := u.Catalog.Get("uniprotToPathway")
	set, rep, err := u.Gen.Generate(entry.Module)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- annotation card ---")
	fmt.Print(explore.Card(entry.Module, set, rep))

	// 3. Ask the planner for verified workflows from DNA to a pathway.
	fmt.Println("\n--- workflow synthesis: DNASequence -> KEGGPathwayID ---")
	gen := core.NewCachedGenerator(u.Gen)
	planner := &compose.Planner{Ont: u.Ont, Reg: u.Registry, Examples: func(id string) (dataexample.Set, bool) {
		e, _ := u.Registry.Get(id)
		set, _, err := gen.Generate(e.Module)
		return set, err == nil && len(set) > 0
	}}
	plans, err := planner.Plan(compose.Constraints{In: simulation.CDNASequence, Out: simulation.CKEGGPathwayID})
	if err != nil {
		log.Fatal(err)
	}
	for _, plan := range plans {
		status := "UNVERIFIED"
		if plan.Verified {
			status = "VERIFIED"
		}
		fmt.Printf("[%s] %s\n", status, plan.Chain())
		for _, step := range plan.Steps {
			if len(step.Equivalent) > 0 {
				fmt.Printf("    %s interchangeable with %s\n", step.Module, strings.Join(step.Equivalent, ", "))
			}
		}
		for name, w := range plan.Witness {
			fmt.Printf("    witness %s = %s\n", name, w)
		}
	}
}
