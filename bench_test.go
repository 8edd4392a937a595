// Benchmarks regenerating every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus
// micro-benchmarks of the core operations. Each BenchmarkTableX /
// BenchmarkFigureX target re-runs the full experiment behind that exhibit;
// the printed numbers themselves come from cmd/dexa-experiments and are
// recorded in EXPERIMENTS.md.
package dexa

import (
	"runtime"
	"sync"
	"testing"

	"dexa/internal/core"
	"dexa/internal/experiment"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/simulation"
	"dexa/internal/simulation/bio"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

var (
	suiteOnce sync.Once
	suite     *experiment.Suite
)

func benchSuite(b *testing.B) *experiment.Suite {
	b.Helper()
	suiteOnce.Do(func() { suite = experiment.NewSuite() })
	return suite
}

func runExperiment(b *testing.B, id string) {
	s := benchSuite(b)
	// Warm shared state (catalog evaluation, legacy world) outside timing.
	if _, err := s.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable3Kinds regenerates Table 3 (module-kind census).
func BenchmarkTable3Kinds(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkOutputCoverage regenerates the §4.3 coverage statistics
// (252 input-covered, 233 output-covered, 19 exceptions).
func BenchmarkOutputCoverage(b *testing.B) { runExperiment(b, "coverage") }

// BenchmarkTable1Completeness regenerates the Table-1 completeness
// distribution.
func BenchmarkTable1Completeness(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Conciseness regenerates the Table-2 conciseness
// distribution.
func BenchmarkTable2Conciseness(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFigure5UserStudy regenerates the Figure-5 user study.
func BenchmarkFigure5UserStudy(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure8Matching regenerates the Figure-8 matching-and-repair
// experiment (72 unavailable modules, 3046-workflow repository).
func BenchmarkFigure8Matching(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkAblationPartitioning contrasts realization vs leaf-only
// partitioning over the whole catalog.
func BenchmarkAblationPartitioning(b *testing.B) { runExperiment(b, "ablation-partition") }

// BenchmarkAblationMatchers contrasts the three matchers over the 72
// unavailable modules.
func BenchmarkAblationMatchers(b *testing.B) { runExperiment(b, "ablation-matchers") }

// BenchmarkAblationProbing sweeps values-per-partition over the catalog.
func BenchmarkAblationProbing(b *testing.B) { runExperiment(b, "ablation-probing") }

// BenchmarkDedupDetection runs the §8 redundancy detector over the
// catalog's example sets.
func BenchmarkDedupDetection(b *testing.B) { runExperiment(b, "dedup") }

// --- micro-benchmarks -----------------------------------------------------

// BenchmarkGenerateExamplesPerCatalog measures one full generation sweep
// over all 252 modules: a plain sequential loop, the worker-pool
// SweepGenerator, and a warm CachedGenerator (the memoized steady state
// hit by repeated experiment runs).
func BenchmarkGenerateExamplesPerCatalog(b *testing.B) {
	s := benchSuite(b)
	mods := make([]*module.Module, len(s.U.Catalog.Entries))
	for i, e := range s.U.Catalog.Entries {
		mods[i] = e.Module
	}
	b.Run("sequential", func(b *testing.B) {
		gen := core.NewGenerator(s.U.Ont, s.U.Pool)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range mods {
				if _, _, err := gen.Generate(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		sweep := core.NewSweepGenerator(core.NewGenerator(s.U.Ont, s.U.Pool))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range sweep.Sweep(mods) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		cached := core.NewCachedGenerator(core.NewGenerator(s.U.Ont, s.U.Pool))
		for _, m := range mods { // warm the cache outside timing
			if _, _, err := cached.Generate(m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range mods {
				if _, _, err := cached.Generate(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkGenerateSingleModule measures generation for the 15-partition
// record summariser (the widest input domain in the catalog).
func BenchmarkGenerateSingleModule(b *testing.B) {
	s := benchSuite(b)
	e, _ := s.U.Catalog.Get("getRecordSummary")
	gen := core.NewGenerator(s.U.Ont, s.U.Pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gen.Generate(e.Module); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareModules measures a live §6 behaviour comparison.
func BenchmarkCompareModules(b *testing.B) {
	s := benchSuite(b)
	ea, _ := s.U.Catalog.Get("sequenceToFasta")
	eb, _ := s.U.Catalog.Get("seqExport")
	cmp := match.NewComparer(s.U.Ont, s.U.Gen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cmp.Compare(ea.Module, eb.Module)
		if err != nil || res.Verdict == match.Incomparable {
			b.Fatalf("%v %v", res.Verdict, err)
		}
	}
}

// BenchmarkFindSubstitutes measures a full substitute search over the 252
// available modules, sequentially (Workers=1) and with the default
// GOMAXPROCS candidate fan-out.
func BenchmarkFindSubstitutes(b *testing.B) {
	s := benchSuite(b)
	e, _ := s.U.Catalog.Get("getUniprotRecord")
	set, _, err := s.U.Gen.Generate(e.Module)
	if err != nil {
		b.Fatal(err)
	}
	target := match.Unavailable{Signature: e.Module, Examples: set}
	available := s.U.Registry.Available()
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			cmp := match.NewComparer(s.U.Ont, nil)
			cmp.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cmp.FindSubstitutes(target, available); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", run(1))
	b.Run("parallel", run(0))
}

// BenchmarkOntologyPartitions measures the §3.1 partitioning primitive on
// the widest concept: cold (reachability cache rebuilt every call, the
// pre-cache behaviour) and warm (the memoized steady state).
func BenchmarkOntologyPartitions(b *testing.B) {
	ont := simulation.BuildOntology()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ont.InvalidateCaches()
			if _, err := ont.Partitions(simulation.CBioRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := ont.Partitions(simulation.CBioRecord); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ont.Partitions(simulation.CBioRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolRealization measures the getInstance(c, pl) primitive.
func BenchmarkPoolRealization(b *testing.B) {
	s := benchSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.U.Pool.Realization(simulation.CUniprotRecord, typesys.StringType, 0); !ok {
			b.Fatal("no realization")
		}
	}
}

// BenchmarkWorkflowEnact measures enacting the Figure-1 pipeline.
func BenchmarkWorkflowEnact(b *testing.B) {
	s := benchSuite(b)
	u := s.U
	entry, _ := u.DB.ByIndex(42)
	masses := bio.PeptideMasses(entry.Protein)
	items := make([]typesys.Value, len(masses))
	for i, m := range masses {
		items[i] = typesys.Floatv(m)
	}
	inputs := map[string]typesys.Value{
		"masses": typesys.MustList(typesys.FloatType, items...),
		"error":  typesys.Floatv(2),
	}
	wf := figure1Workflow()
	if err := wf.Validate(u.Registry, u.Ont); err != nil {
		b.Fatal(err)
	}
	en := workflow.NewEnactor(u.Registry)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := en.Enact(wf, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func figure1Workflow() *workflow.Workflow {
	return &workflow.Workflow{
		ID: "bench-figure1", Name: "Protein identification",
		Inputs: []workflow.Port{
			{Name: "masses", Struct: typesys.ListOf(typesys.FloatType), Semantic: simulation.CPeptideMassList},
			{Name: "error", Struct: typesys.FloatType, Semantic: simulation.CPercentage},
		},
		Outputs: []workflow.Port{{Name: "report", Struct: typesys.StringType, Semantic: simulation.CAlignReport}},
		Steps: []workflow.Step{
			{ID: "identify", ModuleID: "identifyProtein"},
			{ID: "getRecord", ModuleID: "getUniprotRecord"},
			{ID: "search", ModuleID: "searchSimple", Constants: map[string]typesys.Value{
				"program":  typesys.Str(bio.AlgoSmithWaterman),
				"database": typesys.Str("uniprot"),
			}},
		},
		Links: []workflow.Link{
			{From: workflow.PortRef{Port: "masses"}, To: workflow.PortRef{Step: "identify", Port: "masses"}},
			{From: workflow.PortRef{Port: "error"}, To: workflow.PortRef{Step: "identify", Port: "error"}},
			{From: workflow.PortRef{Step: "identify", Port: "accession"}, To: workflow.PortRef{Step: "getRecord", Port: "accession"}},
			{From: workflow.PortRef{Step: "getRecord", Port: "record"}, To: workflow.PortRef{Step: "search", Port: "record"}},
			{From: workflow.PortRef{Step: "search", Port: "report"}, To: workflow.PortRef{Port: "report"}},
		},
	}
}

// BenchmarkAlignmentAlgorithms measures the three aligners behind the
// homology services.
func BenchmarkAlignmentAlgorithms(b *testing.B) {
	x, y := bio.ProteinSequence(3), bio.ProteinSequence(43)
	b.Run("needleman-wunsch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bio.NeedlemanWunsch(x, y, bio.DefaultScores)
		}
	})
	b.Run("smith-waterman", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bio.SmithWaterman(x, y, bio.DefaultScores)
		}
	})
	b.Run("kmer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bio.KmerSimilarity(x, y, 3)
		}
	})
}

// BenchmarkHomologySearch measures a full database scan with
// Smith-Waterman, the hottest operation behind the analysis modules:
// the top-k scan as one shard (GOMAXPROCS=1) and sharded across
// GOMAXPROCS.
func BenchmarkHomologySearch(b *testing.B) {
	db := bio.NewDatabase(bio.DefaultSize)
	query := bio.ProteinSequence(7)
	scan := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hits := db.HomologySearch(query, bio.AlgoSmithWaterman, 5); len(hits) != 5 {
				b.Fatal("bad hits")
			}
		}
	}
	b.Run("one-shard", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		scan(b)
	})
	b.Run("sharded", scan)
}
