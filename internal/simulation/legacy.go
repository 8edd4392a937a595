package simulation

import (
	"fmt"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/provenance"
	"dexa/internal/simulation/bio"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// The §6 matching experiment operates on a second population of modules:
// the *legacy* modules of old workflows, supplied by third parties who
// have since stopped their service (the KEGG SOAP interruption being the
// canonical case). 72 of them left provenance traces from which data
// examples can be reconstructed; the rest left only signatures. The
// legacy world also carries the workflow repository (the myExperiment
// stand-in): thousands of workflows, roughly half broken by decay.

// ExpectedMatch is the ground-truth matching category of a traced legacy
// module against the available catalog.
type ExpectedMatch int

const (
	// ExpectEquivalent: an available module exhibits identical behaviour.
	ExpectEquivalent ExpectedMatch = iota
	// ExpectOverlapping: available modules agree on part of the domain.
	ExpectOverlapping
	// ExpectNone: no available module matches behaviourally.
	ExpectNone
)

// LegacyModule is one unavailable module with traces.
type LegacyModule struct {
	Module   *module.Module
	Expected ExpectedMatch
	// ContextUsable marks overlapping modules whose disagreement lies
	// outside the concepts flowing in their workflows (the Figure-7 case).
	ContextUsable bool
	// Context gives, for usable modules, the concept actually flowing into
	// each input in the legacy workflows.
	Context map[string]string
}

// LegacyWorld bundles the §6 experiment material.
type LegacyWorld struct {
	// Traced are the 72 unavailable modules with provenance traces.
	Traced []*LegacyModule
	// Untraced are unavailable modules that never left traces; workflows
	// using them cannot be repaired by this method.
	Untraced []*module.Module
	// Corpus holds the legacy provenance traces.
	Corpus *provenance.Corpus
	// Workflows is the repository (healthy and broken together).
	Workflows []*workflow.Workflow
	// BrokenTarget is how many repository workflows reference at least one
	// legacy module.
	BrokenTarget int

	universe *Universe
}

// Counts of the legacy population, mirroring Figure 8's workload.
const (
	legacyEquivalent  = 16
	legacyOverlapping = 23 // 6 of them usable in context
	legacyNoMatch     = 33
	legacyTraced      = legacyEquivalent + legacyOverlapping + legacyNoMatch // 72
	legacyUntraced    = 80
)

// Repository composition, matching §6's accounting: 334 workflows are
// repaired in total — 261 fully (248 through equivalent substitutes + 13
// through context-certified overlapping substitutes) and 73 partly (their
// equivalent-substituted steps bring the equivalents' tally to 321, the
// paper's number); the rest of the broken workflows cannot be repaired.
// Healthy workflows round the repository out (§6 reports ~half of ~3000
// workflows broken).
const (
	repoEquivRepairable   = 248
	repoContextRepairable = 13
	repoPartial           = 73
	repoDeadBroken        = 1166
	repoBroken            = repoEquivRepairable + repoContextRepairable + repoPartial + repoDeadBroken // 1500
	repoHealthy           = 1546
)

// cloneSignature copies a module's interface under a new identity.
func cloneSignature(m *module.Module, id, provider string) *module.Module {
	c := &module.Module{
		ID: id, Name: m.Name, Description: m.Description,
		Form: module.FormSOAP, Kind: m.Kind, Provider: provider,
		Inputs:  append([]module.Parameter(nil), m.Inputs...),
		Outputs: append([]module.Parameter(nil), m.Outputs...),
	}
	return c
}

// delegateTo binds the clone to the original module's behaviour.
func delegateTo(target *module.Module) module.ExecFunc {
	return func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return target.Invoke(in)
	}
}

// BuildLegacyWorld constructs the legacy modules, records their traces,
// registers everything as unavailable, and generates the workflow
// repository.
func BuildLegacyWorld(u *Universe) *LegacyWorld {
	lw := &LegacyWorld{Corpus: provenance.NewCorpus(), universe: u, BrokenTarget: repoBroken}
	lw.buildEquivalentLegacies()
	lw.buildOverlappingLegacies()
	lw.buildNoMatchLegacies()
	lw.buildUntracedLegacies()
	if len(lw.Traced) != legacyTraced {
		panic(fmt.Sprintf("simulation: %d traced legacy modules, want %d", len(lw.Traced), legacyTraced))
	}
	lw.recordTraces()
	lw.registerAndRetire()
	lw.buildRepository()
	return lw
}

// mustCatalogModule fetches an available module by ID.
func (lw *LegacyWorld) mustCatalogModule(id string) *module.Module {
	e, ok := lw.universe.Catalog.Get(id)
	if !ok {
		panic("simulation: unknown catalog module " + id)
	}
	return e.Module
}

// buildEquivalentLegacies creates the 16 modules whose behaviour an
// available module reproduces exactly — legacy KEGG SOAP services whose
// functionality reappeared under REST (§6).
func (lw *LegacyWorld) buildEquivalentLegacies() {
	targets := []string{
		"uniprotToGO", "uniprotToKEGG", "uniprotToPathway", "uniprotToEnzyme",
		"uniprotToGene", "keggToUniprot", "genbankToUniprot", "pathwayToGenes",
		"getUniprotRecord", "getFastaSequence", "getPDBEntry", "getGenBankEntry",
		"getCompound", "getGlycan", "transcribe", "getHomologous",
	}
	for _, id := range targets {
		avail := lw.mustCatalogModule(id)
		legacy := cloneSignature(avail, "legacy.kegg."+id, "KEGG-SOAP")
		legacy.Bind(delegateTo(avail))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: legacy, Expected: ExpectEquivalent})
	}
}

// buildOverlappingLegacies creates the 23 modules that agree with an
// available module on part of the domain. Six of them disagree only
// outside the concepts their workflows actually feed them, so a
// context-certified substitution is possible (Figure 7).
func (lw *LegacyWorld) buildOverlappingLegacies() {
	u := lw.universe

	// 2× seqToFastaOld: generic sequences get a different header; DNA,
	// RNA and proteins behave exactly like sequenceToFasta. Usable in
	// protein-only contexts.
	for v := 0; v < 2; v++ {
		m := cloneSignature(lw.mustCatalogModule("sequenceToFasta"), fmt.Sprintf("legacy.seqToFastaOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			s, _ := strOf(in, "sequence")
			header := "nt|query"
			switch bio.ClassifySequence(s) {
			case "protein":
				header = "aa|query"
			case "":
				header = "aa|query" // the legacy quirk: generic treated as protein
			}
			return strOut("fasta", bio.FastaOf(header, s)), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{
			Module: m, Expected: ExpectOverlapping, ContextUsable: true,
			Context: map[string]string{"sequence": CProtSequence},
		})
	}

	// 2× formatSequenceReportOld: generic sequences report a different
	// mode. Usable in protein-only contexts.
	for v := 0; v < 2; v++ {
		m := cloneSignature(lw.mustCatalogModule("formatSequenceReport"), fmt.Sprintf("legacy.formatReportOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			s, _ := strOf(in, "sequence")
			mode := "nucleotide"
			switch bio.ClassifySequence(s) {
			case "protein":
				mode = "protein"
			case "":
				mode = "legacy" // the legacy quirk
			}
			return strOut("report", fmt.Sprintf("FORMAT mode=%s length=%d", mode, len(s))), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{
			Module: m, Expected: ExpectOverlapping, ContextUsable: true,
			Context: map[string]string{"sequence": CProtSequence},
		})
	}

	// 2× mapNucToProtOld: EMBL accessions resolve to PIR instead of
	// Uniprot. Usable where only GenBank accessions flow.
	for v := 0; v < 2; v++ {
		m := cloneSignature(lw.mustCatalogModule("mapNucToProt"), fmt.Sprintf("legacy.mapNucToProtOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			acc, _ := strOf(in, "accession")
			e, ok := u.DB.ByAnyAccession(acc)
			if !ok {
				return nil, rejectf("no entry for %q", acc)
			}
			if bio.IsEMBLAccession(acc) {
				return strOut("uniprot", bio.PIRAccession(e.Index)), nil // the legacy quirk
			}
			return strOut("uniprot", e.Accession), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{
			Module: m, Expected: ExpectOverlapping, ContextUsable: true,
			Context: map[string]string{"accession": CGenBankAcc},
		})
	}

	// 5× getRecordSummaryOld: protein records gain a legacy marker, so the
	// modules disagree with every available summariser on a third of the
	// domain — and the workflows feed arbitrary records, so no context
	// rescues them.
	for v := 0; v < 5; v++ {
		m := cloneSignature(lw.mustCatalogModule("getRecordSummary"), fmt.Sprintf("legacy.recordSummaryOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			rec, _ := strOf(in, "record")
			kind := bio.ClassifyRecord(rec)
			if kind == "" {
				return nil, rejectf("unrecognised record format")
			}
			first := rec
			if i := indexByte(rec, '\n'); i >= 0 {
				first = rec[:i]
			}
			out := fmt.Sprintf("SUMMARY kind=%s bytes=%d head=%q", kind, len(rec), first)
			switch kind {
			case "uniprot", "pir", "pdb", "fasta", "genpept":
				out += " legacy=1" // the legacy quirk
			}
			return strOut("summary", out), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: m, Expected: ExpectOverlapping})
	}

	// 4× getProteinFastaOld: PIR accessions render PIR records instead of
	// FASTA.
	for v := 0; v < 4; v++ {
		m := cloneSignature(lw.mustCatalogModule("getProteinFasta"), fmt.Sprintf("legacy.getProteinFastaOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			acc, _ := strOf(in, "accession")
			e, ok := u.DB.ByAnyAccession(acc)
			if !ok {
				return nil, rejectf("no entry for %q", acc)
			}
			if bio.IsPIRAccession(acc) {
				return strOut("record", bio.PIRRecord(e)), nil // the legacy quirk
			}
			return strOut("record", bio.FastaRecord(e)), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: m, Expected: ExpectOverlapping})
	}

	// 4× getNucleotideGenBankOld: EMBL accessions return EMBL records.
	for v := 0; v < 4; v++ {
		m := cloneSignature(lw.mustCatalogModule("getNucleotideGenBank"), fmt.Sprintf("legacy.getNucGenBankOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			acc, _ := strOf(in, "accession")
			e, ok := u.DB.ByAnyAccession(acc)
			if !ok {
				return nil, rejectf("no entry for %q", acc)
			}
			if bio.IsEMBLAccession(acc) {
				return strOut("record", bio.EMBLRecord(e)), nil // the legacy quirk
			}
			return strOut("record", bio.GenBankRecord(e)), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: m, Expected: ExpectOverlapping})
	}

	// 4× extractSequenceOld: PDB and FASTA records yield reversed
	// sequences (a legacy orientation bug).
	for v := 0; v < 4; v++ {
		m := cloneSignature(lw.mustCatalogModule("extractSequence"), fmt.Sprintf("legacy.extractSequenceOld%s", variantSuffix(v)), "iSpider")
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			rec, _ := strOf(in, "record")
			e, ok := entryFromProteinRecord(u.DB, rec)
			if !ok {
				return nil, rejectf("cannot resolve protein record")
			}
			seq := e.Protein
			switch bio.ClassifyRecord(rec) {
			case "pdb", "fasta":
				seq = reverseString(seq) // the legacy quirk
			}
			return strOut("sequence", seq), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: m, Expected: ExpectOverlapping})
	}
}

// buildNoMatchLegacies creates 33 modules no available module can
// substitute: 20 behavioural mutants (signatures map but outputs always
// differ) and 13 with signatures nothing in the catalog exposes.
func (lw *LegacyWorld) buildNoMatchLegacies() {
	mutants := []string{
		"getUniprotRecord", "getFastaSequence", "getGenBankEntry", "getEMBLEntry",
		"uniprotToGene", "uniprotToPIR", "geneToUniprot", "pdbToUniprot",
		"reverseComplement", "complement", "uniprotToFasta", "fastaToSequence",
		"computeGC", "molecularWeight", "countBases", "countResidues",
		"emblToGenbankAcc", "keggToUniprot", "getLigand", "transcribe",
	}
	for i, id := range mutants {
		avail := lw.mustCatalogModule(id)
		legacy := cloneSignature(avail, fmt.Sprintf("legacy.mutant%02d.%s", i, id), "DefunctLab")
		// Deface every output so no candidate ever agrees (MutantExecutor
		// is the shared decay model — decay.go scripts it onto live
		// modules too).
		legacy.Bind(MutantExecutor(avail))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: legacy, Expected: ExpectNone})
	}
	for i := 0; i < 13; i++ {
		i := i
		m := &module.Module{
			ID: fmt.Sprintf("legacy.speciesInfo%02d", i), Name: "SpeciesInfo",
			Description: "summarise what is known about a species",
			Form:        module.FormSOAP, Kind: module.KindAnalysis, Provider: "DefunctLab",
			Inputs:  []module.Parameter{inStr("species", CTaxonName)},
			Outputs: []module.Parameter{inStr("summary", CSummaryReport)},
		}
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			sp, _ := strOf(in, "species")
			return strOut("summary", fmt.Sprintf("SPECIES %s profile=%d", sp, i)), nil
		}))
		lw.Traced = append(lw.Traced, &LegacyModule{Module: m, Expected: ExpectNone})
	}
}

// buildUntracedLegacies creates unavailable modules that never left
// provenance traces; workflows depending on them stay broken (§6: "mainly
// because data examples were not collected for the remaining modules while
// they were available").
func (lw *LegacyWorld) buildUntracedLegacies() {
	for i := 0; i < legacyUntraced; i++ {
		m := &module.Module{
			ID: fmt.Sprintf("legacy.lost%03d", i), Name: fmt.Sprintf("LostService%d", i),
			Description: "a service whose provider and traces are both gone",
			Form:        module.FormSOAP, Kind: module.KindAnalysis, Provider: "GoneCorp",
			Inputs:  []module.Parameter{inStr("accession", CUniprotAcc)},
			Outputs: []module.Parameter{inStr("report", CSummaryReport)},
		}
		// Never bound: nothing was recorded while it was alive.
		lw.Untraced = append(lw.Untraced, m)
	}
}

// recordTraces invokes every traced legacy module over its input
// partitions (while it is still "alive") and appends the invocations to
// the legacy provenance corpus — the §6 trawl of old project traces.
func (lw *LegacyWorld) recordTraces() {
	u := lw.universe
	for i, lm := range lw.Traced {
		set, _, err := u.Gen.Generate(lm.Module)
		if err != nil {
			panic(fmt.Sprintf("simulation: tracing legacy %s: %v", lm.Module.ID, err))
		}
		for seq, ex := range set {
			lw.Corpus.OnInvocation(workflow.InvocationRecord{
				WorkflowID:     fmt.Sprintf("legacy-wf-%03d", i),
				StepID:         "s1",
				ModuleID:       lm.Module.ID,
				Seq:            seq + 1,
				Inputs:         ex.Inputs,
				Outputs:        ex.Outputs,
				InputConcepts:  conceptsOfParams(lm.Module.Inputs),
				OutputConcepts: conceptsOfParams(lm.Module.Outputs),
			})
		}
	}
}

func conceptsOfParams(ps []module.Parameter) map[string]string {
	out := make(map[string]string, len(ps))
	for _, p := range ps {
		out[p.Name] = p.Semantic
	}
	return out
}

// registerAndRetire adds every legacy module to the universe registry and
// immediately marks it unavailable (the providers are gone), and unbinds
// the executors — from now on, only the provenance traces speak for them.
func (lw *LegacyWorld) registerAndRetire() {
	reg := lw.universe.Registry
	for _, lm := range lw.Traced {
		reg.MustRegister(lm.Module)
		if err := reg.SetAvailable(lm.Module.ID, false); err != nil {
			panic(err)
		}
		lm.Module.Bind(nil)
	}
	for _, m := range lw.Untraced {
		reg.MustRegister(m)
		if err := reg.SetAvailable(m.ID, false); err != nil {
			panic(err)
		}
	}
}

// ExamplesSource reconstructs data examples for unavailable modules from
// the legacy corpus, refining the recorded parameter concepts to the most
// specific partition each value realises (the curator classifies trace
// values against the ontology before matching).
func (lw *LegacyWorld) ExamplesSource() workflow.ExamplesSource {
	pool := lw.universe.Pool
	return func(moduleID string) (dataexample.Set, bool) {
		set, ok := lw.Corpus.Source(moduleID)
		if !ok {
			return nil, false
		}
		refined := make(dataexample.Set, len(set))
		for i, ex := range set {
			parts := make(map[string]string, len(ex.InputPartitions))
			for param, concept := range ex.InputPartitions {
				parts[param] = concept
				if v, okv := ex.Inputs[param]; okv {
					if hits := pool.Classify(concept, v); len(hits) > 0 {
						parts[param] = hits[0]
					}
				}
			}
			refined[i] = dataexample.Example{
				Inputs: ex.Inputs, Outputs: ex.Outputs,
				InputPartitions: parts, OutputPartitions: ex.OutputPartitions,
			}
		}
		return refined, true
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func reverseString(s string) string {
	r := []byte(s)
	for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
		r[i], r[j] = r[j], r[i]
	}
	return string(r)
}

// MutantExecutor wraps inner so every output is defaced the way the
// legacy behavioural mutants are (§6's silent format change): strings are
// prefixed with "LEGACY-FORMAT\n", floats shifted by +10000. The module
// still answers — only data examples can tell it drifted.
func MutantExecutor(inner module.Executor) module.ExecFunc {
	return func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		outs, err := inner.Invoke(in)
		if err != nil {
			return nil, err
		}
		mutated := make(map[string]typesys.Value, len(outs))
		for name, v := range outs {
			switch w := v.(type) {
			case typesys.StringValue:
				mutated[name] = typesys.Str("LEGACY-FORMAT\n" + string(w))
			case typesys.FloatValue:
				mutated[name] = typesys.Floatv(float64(w) + 10000)
			default:
				mutated[name] = v
			}
		}
		return mutated, nil
	}
}
