// Command dexa-bench is the benchmark-regression harness: it measures the
// annotation engine's hot paths with testing.Benchmark, writes the results
// as a JSON snapshot (BENCH_<date>.json by default), and — when given a
// previous snapshot — exits non-zero if any benchmark slowed down beyond
// the tolerance.
//
// Usage:
//
//	dexa-bench                                      # write BENCH_<today>.json
//	dexa-bench -o snapshot.json                     # explicit output path
//	dexa-bench -baseline BENCH_2026-08-06.json      # regression check (30% tolerance)
//	dexa-bench -baseline old.json -tolerance 0.15
//	dexa-bench -overhead-only                       # telemetry-overhead gate only (no snapshot)
//
// Every measurement pairs a baseline with its optimized counterpart
// (sequential loop vs worker-pool sweep, cold vs warm ontology cache,
// fresh vs memoized generation, one-shard vs sharded homology scan, one
// durable writer vs eight sharing group commits) so the snapshot records
// honest speedups for the exact host it ran on. Wall-clock gains from the
// parallel paths are bounded by the host CPU count — the snapshot records
// num_cpu and gomaxprocs so a single-core container's ~1x parallel ratios
// are not mistaken for a regression; the cache and memoization ratios are
// CPU-independent.
//
// dexa-bench only measures. That the optimized paths return the same
// answers as their oracles is checked by go test (DESIGN.md §15 lists
// the tests).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/lifecycle"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/resilient"
	"dexa/internal/search"
	"dexa/internal/simulation"
	"dexa/internal/simulation/bio"
	"dexa/internal/store"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// Measurement is one benchmark result.
type Measurement struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Comparison relates a baseline measurement to its optimized counterpart.
type Comparison struct {
	Name     string  `json:"name"`
	Baseline string  `json:"baseline"`
	Variant  string  `json:"variant"`
	Speedup  float64 `json:"speedup"`
}

// Report is the snapshot written to BENCH_<date>.json.
type Report struct {
	Date        string        `json:"date"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Note        string        `json:"note"`
	Benchmarks  []Measurement `json:"benchmarks"`
	Comparisons []Comparison  `json:"comparisons"`
}

func main() {
	out := flag.String("o", "", "output JSON path (default BENCH_<date>.json)")
	baseline := flag.String("baseline", "", "previous snapshot to compare against")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional ns/op slowdown vs the baseline before failing")
	overheadOnly := flag.Bool("overhead-only", false, "run only the telemetry-overhead gate (no snapshot); exit non-zero when instrumented generation exceeds the overhead tolerance")
	overheadTol := flag.Float64("overhead-tolerance", 0.05, "allowed fractional slowdown of instrumented generation over the no-op recorder")
	flag.Parse()
	if *out == "" {
		*out = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
	}

	fmt.Fprintln(os.Stderr, "building experimental universe...")
	u := simulation.NewUniverse()
	mods := make([]*module.Module, len(u.Catalog.Entries))
	for i, e := range u.Catalog.Entries {
		mods[i] = e.Module
	}

	var results []Measurement
	byName := map[string]Measurement{}
	measure := func(name string, f func(b *testing.B)) Measurement {
		fmt.Fprintf(os.Stderr, "  %-36s", name)
		r := testing.Benchmark(f)
		m := Measurement{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d allocs/op\n", m.NsPerOp, m.AllocsPerOp)
		return m
	}
	run := func(name string, f func(b *testing.B)) {
		m := measure(name, f)
		results = append(results, m)
		byName[name] = m
	}

	// Shared fixtures for the match benches: one unavailable target plus
	// the full live catalog.
	entry, ok := u.Catalog.Get("getUniprotRecord")
	if !ok {
		fmt.Fprintln(os.Stderr, "getUniprotRecord missing from catalog")
		os.Exit(1)
	}
	set, _, err := u.Gen.Generate(entry.Module)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	target := match.Unavailable{Signature: entry.Module, Examples: set}
	available := u.Registry.Available()

	// Telemetry-overhead gate: the same generation loop through the full
	// resilient stack, once with a nil registry (every recorder a no-op)
	// and once with a live registry recording every counter and histogram.
	// The instrumented variant must stay within -overhead-tolerance of the
	// no-op one. Trace spans are request-scoped and opt-in (they cost
	// nothing unless a tracer rides the context), so the traced variant is
	// recorded for visibility but not gated: per-invocation spans in the
	// combination loop are priced per request, not per sweep.
	overheadEntry, ok := u.Catalog.Get("getRecordSummary")
	if !ok {
		fmt.Fprintln(os.Stderr, "getRecordSummary missing from catalog")
		os.Exit(1)
	}
	overheadInner := overheadEntry.Module.Executor()
	overheadVariant := func(reg *telemetry.Registry, tracer *telemetry.Tracer) func(b *testing.B) {
		return func(b *testing.B) {
			overheadEntry.Module.Bind(resilient.Wrap(overheadEntry.Module.ID, overheadInner, resilient.Options{Metrics: reg}))
			gen := core.NewGenerator(u.Ont, u.Pool)
			ctx := context.Background()
			if tracer != nil {
				ctx = telemetry.WithTracer(ctx, tracer)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := gen.GenerateContext(ctx, overheadEntry.Module); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	overheadPair := func() (noop, inst Measurement) {
		noop = measure("telemetry-overhead/noop", overheadVariant(nil, nil))
		inst = measure("telemetry-overhead/instrumented", overheadVariant(telemetry.NewRegistry(), nil))
		overheadEntry.Module.Bind(overheadInner)
		return noop, inst
	}
	// checkOverhead measures the pair (optionally recording it into the
	// snapshot) and gates on the ratio. One remeasure absorbs scheduler
	// noise: the gate takes the better of the two ratios, so only a
	// reproducible slowdown fails the build.
	checkOverhead := func(record bool) bool {
		noop, inst := overheadPair()
		if record {
			results = append(results, noop, inst)
			byName[noop.Name], byName[inst.Name] = noop, inst
		}
		ratio := inst.NsPerOp / noop.NsPerOp
		if ratio > 1+*overheadTol {
			fmt.Fprintf(os.Stderr, "  overhead %.1f%% above the %.0f%% target; remeasuring once\n",
				(ratio-1)*100, 100**overheadTol)
			n2, i2 := overheadPair()
			if r2 := i2.NsPerOp / n2.NsPerOp; r2 < ratio {
				ratio = r2
			}
		}
		if ratio > 1+*overheadTol {
			fmt.Fprintf(os.Stderr, "REGRESSION telemetry overhead: instrumented generation is %.1f%% slower than the no-op recorder (tolerance %.0f%%)\n",
				(ratio-1)*100, 100**overheadTol)
			return true
		}
		fmt.Fprintf(os.Stderr, "telemetry overhead: %+.1f%% (tolerance %.0f%%)\n", (ratio-1)*100, 100**overheadTol)
		return false
	}
	if *overheadOnly {
		if checkOverhead(false) {
			os.Exit(1)
		}
		return
	}

	// Catalog generation sweep: sequential loop, worker-pool fan-out, and
	// the memoized steady state of repeated experiment runs.
	run("generate-catalog/sequential", func(b *testing.B) {
		gen := core.NewGenerator(u.Ont, u.Pool)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range mods {
				if _, _, err := gen.Generate(m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	run("generate-catalog/sweep", func(b *testing.B) {
		sweep := core.NewSweepGenerator(core.NewGenerator(u.Ont, u.Pool))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range sweep.Sweep(mods) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	run("generate-catalog/memoized", func(b *testing.B) {
		cached := core.NewCachedGenerator(core.NewGenerator(u.Ont, u.Pool))
		for _, m := range mods {
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

	// Substitute search over the full catalog: plain sequential, parallel
	// fan-out, and index-pruned at the sequential width (so the indexed
	// pair isolates the pruning win from the concurrency win).
	substitutes := func(workers int, indexed bool) func(b *testing.B) {
		return func(b *testing.B) {
			cmp := match.NewComparer(u.Ont, nil)
			cmp.Workers = workers
			if indexed {
				// Built once: the index is amortized across searches exactly
				// as the serving layer amortizes it across requests.
				cmp.Index = match.NewCatalogIndex(u.Ont, mods)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cmp.FindSubstitutes(target, available); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	run("find-substitutes/sequential", substitutes(1, false))
	run("find-substitutes/parallel", substitutes(0, false))
	run("find-substitutes/indexed", substitutes(1, true))

	// Set alignment: both sets keyed afresh for every comparison vs symbol
	// IDs interned once per set and probed through caller-owned scratch
	// (the matrix sweep's per-cell path: bitset membership, uint32 output
	// equality, zero steady-state allocations). The target's own set
	// against itself under the identity mapping is the densest case —
	// every example aligns and every output pair agrees.
	selfMapping, ok := match.MapParameters(u.Ont, entry.Module, entry.Module, match.ModeExact)
	if !ok {
		fmt.Fprintln(os.Stderr, "self-mapping must exist")
		os.Exit(1)
	}
	keyedSet := set.KeyedInterned(dataexample.NewSymbolTable())
	var keyedScratch match.CompareScratch
	run("compare-sets/unkeyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := match.CompareKeyedSets(entry.Module.ID, entry.Module.ID, set.Keyed(), set.Keyed(), selfMapping); r.Verdict != match.Equivalent {
				b.Fatal("unexpected verdict")
			}
		}
	})
	run("compare-sets/keyed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := match.CompareKeyedSetsScratch(&keyedScratch, entry.Module.ID, entry.Module.ID, keyedSet, keyedSet, selfMapping); r.Verdict != match.Equivalent {
				b.Fatal("unexpected verdict")
			}
		}
	})

	// All-pairs matrix over the full catalog: the cold sweep keys and
	// interns every set and tries a mapping for every ordered pair; the
	// warm sweep is the steady state the serving layer reaches —
	// signature index and interned keyed sets built once, pruning the
	// infeasible bulk before any alignment and comparing symbol IDs in
	// the cells that remain. The incremental variant is the /matches
	// rebuild path when nothing changed: diff, copy, reassemble.
	matrixSets := map[string]dataexample.Set{}
	matrixTab := dataexample.NewSymbolTable()
	matrixKeyed := map[string]*dataexample.KeyedSet{}
	for _, m := range mods {
		if s, _, err := u.Gen.Generate(m); err == nil && len(s) > 0 {
			matrixSets[m.ID] = s
			matrixKeyed[m.ID] = s.KeyedInterned(matrixTab)
		}
	}
	matrixKeyedSrc := func(id string) (*dataexample.KeyedSet, bool) {
		s, ok := matrixKeyed[id]
		return s, ok
	}
	run("match-matrix/cold", func(b *testing.B) {
		cmp := match.NewComparer(u.Ont, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tab := dataexample.NewSymbolTable()
			src := func(id string) (*dataexample.KeyedSet, bool) {
				s, ok := matrixSets[id]
				if !ok {
					return nil, false
				}
				return s.KeyedInterned(tab), true
			}
			if _, err := cmp.MatchMatrixFromKeyedSets(context.Background(), mods, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("match-matrix/warm", func(b *testing.B) {
		cmp := match.NewComparer(u.Ont, nil)
		cmp.Index = match.NewCatalogIndex(u.Ont, mods)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cmp.MatchMatrixFromKeyedSets(context.Background(), mods, matrixKeyedSrc); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("match-matrix/incremental", func(b *testing.B) {
		cmp := match.NewComparer(u.Ont, nil)
		cmp.Index = match.NewCatalogIndex(u.Ont, mods)
		inc := match.NewIncrementalMatrix(cmp)
		if _, err := inc.Matrix(context.Background(), mods, matrixKeyedSrc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := inc.Matrix(context.Background(), mods, matrixKeyedSrc); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Behavior-aware search: the cold inverted-index build over the full
	// annotated catalog (what dexa-serve pays at boot) vs the warm steady
	// state where one built index answers a ranked three-family query.
	searchQ, err := search.ParseQuery("alignment concept:ProteinSequence behaves:blastSearch")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run("search-index/cold-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := search.New(u.Ont)
			for _, m := range mods {
				ix.Update(m, matrixSets[m.ID], 0)
			}
			if ix.Len() != len(mods) {
				b.Fatal("short index")
			}
		}
	})
	warmSearch := search.New(u.Ont)
	for _, m := range mods {
		warmSearch.Update(m, matrixSets[m.ID], 0)
	}
	run("search-query/warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hits, _ := warmSearch.Match(searchQ); len(hits) == 0 {
				b.Fatal("no hits")
			}
		}
	})

	// Ontology reasoning: cold (cache rebuilt each call, the pre-cache
	// behaviour) vs warm (memoized steady state).
	run("ontology-partitions/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u.Ont.InvalidateCaches()
			if _, err := u.Ont.Partitions(simulation.CBioRecord); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("ontology-partitions/warm", func(b *testing.B) {
		if _, err := u.Ont.Partitions(simulation.CBioRecord); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := u.Ont.Partitions(simulation.CBioRecord); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Homology search: the top-k scan as one shard (GOMAXPROCS=1) vs
	// sharded across GOMAXPROCS.
	query := bio.ProteinSequence(7)
	homology := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hits := u.DB.HomologySearch(query, bio.AlgoSmithWaterman, 5); len(hits) != 5 {
				b.Fatal("bad hits")
			}
		}
	}
	run("homology-search/one-shard", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		homology(b)
	})
	run("homology-search/sharded", homology)

	// Persistent example store: WAL-append write path (durability per
	// annotation) vs the sharded-index read path (the serving hot loop).
	// Compaction is disabled so the loop measures the steady append cost,
	// not periodic snapshot spikes.
	storeDir, err := os.MkdirTemp("", "dexa-bench-store")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(storeDir)
	benchSet, _, err := u.Gen.Generate(entry.Module)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run("store-write/put", func(b *testing.B) {
		st, err := store.Open(filepath.Join(storeDir, "w"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Rotating IDs make every put a real append, never a hash no-op.
			if _, _, err := st.Put(fmt.Sprintf("mod-%d", i%64), benchSet); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("store-read/get", func(b *testing.B) {
		st, err := store.Open(filepath.Join(storeDir, "r"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < 64; i++ {
			if _, _, err := st.Put(fmt.Sprintf("mod-%d", i), benchSet); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := st.Get(fmt.Sprintf("mod-%d", i%64)); !ok {
				b.Fatal("miss")
			}
		}
	})

	// Write-path fixture: every put carries distinct content so it is a
	// real WAL append, never a hash no-op — the group committer's whole
	// job is amortizing the fsync those appends pay.
	writeSet := func(tag string) dataexample.Set {
		return dataexample.Set{{
			Inputs:          map[string]typesys.Value{"id": typesys.Str(tag)},
			Outputs:         map[string]typesys.Value{"out": typesys.Str("v-" + tag)},
			InputPartitions: map[string]string{"id": "Accession"},
		}}
	}
	// writeBenchVariant splits b.N real appends across the given number
	// of concurrent writers, every one durable (SyncOnPut). A fresh store
	// per invocation keeps calibration reruns from replaying over an
	// existing WAL.
	writeBenchSeq := 0
	writeBenchVariant := func(dir string, writers int) func(b *testing.B) {
		return func(b *testing.B) {
			writeBenchSeq++
			st, err := store.Open(filepath.Join(dir, fmt.Sprintf("wb%d", writeBenchSeq)), store.Options{SyncOnPut: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			work := make(chan int, writers)
			errCh := make(chan error, writers)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range work {
						id := fmt.Sprintf("bench-w%d-%d", w, i%64)
						if _, _, err := st.Put(id, writeSet(fmt.Sprintf("%s-i%d", id, i))); err != nil {
							errCh <- err
							return
						}
					}
				}(w)
			}
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				b.Fatal(err)
			}
		}
	}

	// Write-path pair, both fully durable: one writer, whose every put
	// parks alone and so pays its own fsync, vs 8 concurrent writers
	// sharing the committer's batches.
	run("store-write/put-sync", writeBenchVariant(storeDir, 1))
	run("store-write/group-commit", writeBenchVariant(storeDir, 8))

	// Replication pair: a fresh follower catching up on 512 leader
	// records. Raw is the per-wakeup wire shape — one uncompressed frame
	// per round trip; batched is the shipping path — default limit with
	// negotiated deflate, so the catch-up is one compressed response.
	replLeader, err := store.Open("", store.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer replLeader.Close()
	replItems := make([]store.PutItem, 512)
	for i := range replItems {
		replItems[i] = store.PutItem{ID: fmt.Sprintf("repl-%d", i), Examples: writeSet(fmt.Sprintf("repl-%d", i))}
	}
	replResults, err := replLeader.PutBatch(replItems)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range replResults {
		if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		}
	}
	replSrv := httptest.NewServer(cluster.NewFeed(replLeader, nil))
	defer replSrv.Close()
	tailBench := func(raw bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mirror, err := store.Open("", store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				follower := &cluster.Follower{Leader: replSrv.URL, Store: mirror, Wait: 100 * time.Millisecond}
				if raw {
					follower.NoCompression = true
					follower.Limit = 1
				}
				for mirror.Seq() < replLeader.Seq() {
					if err := follower.TailOnce(context.Background(), replSrv.Client()); err != nil {
						mirror.Close()
						b.Fatal(err)
					}
				}
				if mirror.Len() != replLeader.Len() {
					mirror.Close()
					b.Fatal("follower did not catch up")
				}
				mirror.Close()
			}
		}
	}
	run("replication/tail-raw", tailBench(true))
	run("replication/tail-batched", tailBench(false))

	// Single-module generation, the allocation-sensitive inner loop.
	if e, ok := u.Catalog.Get("getRecordSummary"); ok {
		run("generate-module/getRecordSummary", func(b *testing.B) {
			gen := core.NewGenerator(u.Ont, u.Pool)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := gen.Generate(e.Module); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Lifecycle probe sweep: the manager re-probing every catalog module
	// against its stored annotations under the fake clock. Cold pays what
	// the service pays at boot — Track's phase spread plus the per-module
	// resilient wrapper built on first probe; warm is the steady state a
	// running dexa-serve pays every interval: advance one period and
	// re-invoke each module on its stored example inputs.
	probeClock := resilient.NewFakeClock()
	probeStore, err := store.Open("", store.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer probeStore.Close()
	probeSource := store.NewSource(probeStore, u.Gen)
	probeIDs := make([]string, 0, len(mods))
	for _, m := range mods {
		if _, _, err := probeSource.Generate(m); err == nil {
			probeIDs = append(probeIDs, m.ID)
		}
	}
	probeManager := func() *lifecycle.Manager {
		lg, err := lifecycle.OpenLog("")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mgr, err := lifecycle.NewManager(lifecycle.Config{
			Interval: time.Minute, Jitter: -1,
			Policy: resilient.Policy{MaxAttempts: 1},
		}, lifecycle.Deps{
			Registry: u.Registry, Examples: probeStore, Log: lg, Clock: probeClock,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mgr.Track(probeIDs...)
		return mgr
	}
	probeSweep := func(mgr *lifecycle.Manager) error {
		probeClock.Advance(time.Minute)
		res, err := mgr.RunDue(context.Background())
		if err != nil {
			return err
		}
		if len(res) != len(probeIDs) {
			return fmt.Errorf("sweep probed %d of %d modules", len(res), len(probeIDs))
		}
		return nil
	}
	// Preflight: a healthy catalog must stay healthy under probing, or the
	// benchmark would be timing state transitions instead of sweeps (and a
	// dead module's backoff would starve later sweeps).
	{
		mgr := probeManager()
		probeClock.Advance(time.Minute)
		res, err := mgr.RunDue(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, r := range res {
			if r.Outcome != lifecycle.ProbeHealthy {
				fmt.Fprintf(os.Stderr, "probe preflight: %s is %s (%s)\n", r.Module, r.Outcome, r.Err)
				os.Exit(1)
			}
		}
	}
	run("lifecycle-probe-sweep/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := probeSweep(probeManager()); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("lifecycle-probe-sweep/warm", func(b *testing.B) {
		mgr := probeManager()
		if err := probeSweep(mgr); err != nil { // build every wrapper before the timer
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := probeSweep(mgr); err != nil {
				b.Fatal(err)
			}
		}
	})

	overheadFailed := checkOverhead(true)
	// Informational: full request-style tracing on top of live metrics.
	// Spans in the per-combination hot loop make this measurably slower;
	// it is paid per traced request, never by untraced generation.
	run("telemetry-overhead/traced", overheadVariant(telemetry.NewRegistry(), telemetry.NewTracer(telemetry.DefaultTraceCapacity)))
	overheadEntry.Module.Bind(overheadInner)

	speedup := func(name, base, variant string) Comparison {
		c := Comparison{Name: name, Baseline: base, Variant: variant}
		if v := byName[variant].NsPerOp; v > 0 {
			c.Speedup = byName[base].NsPerOp / v
		}
		return c
	}
	rep := Report{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "speedups of the parallel variants (sweep, find-substitutes/parallel, homology-search/sharded) " +
			"scale with num_cpu and are ~1x on a single-core host; the memoization and cache speedups are CPU-independent",
		Benchmarks: results,
		Comparisons: []Comparison{
			speedup("catalog sweep fan-out", "generate-catalog/sequential", "generate-catalog/sweep"),
			speedup("catalog sweep memoized", "generate-catalog/sequential", "generate-catalog/memoized"),
			speedup("substitute search fan-out", "find-substitutes/sequential", "find-substitutes/parallel"),
			speedup("substitute search index pruning", "find-substitutes/sequential", "find-substitutes/indexed"),
			speedup("set alignment key interning", "compare-sets/unkeyed", "compare-sets/keyed"),
			speedup("match matrix index pruning", "match-matrix/cold", "match-matrix/warm"),
			speedup("match matrix incremental steady state", "match-matrix/warm", "match-matrix/incremental"),
			speedup("search query vs index rebuild", "search-index/cold-build", "search-query/warm"),
			speedup("ontology reachability cache", "ontology-partitions/cold", "ontology-partitions/warm"),
			speedup("homology search sharding", "homology-search/one-shard", "homology-search/sharded"),
			speedup("store read vs write", "store-write/put", "store-read/get"),
			speedup("group commit fsync amortization", "store-write/put-sync", "store-write/group-commit"),
			speedup("batched compressed replication tail", "replication/tail-raw", "replication/tail-batched"),
			speedup("lifecycle probe sweep warm-up", "lifecycle-probe-sweep/cold", "lifecycle-probe-sweep/warm"),
			speedup("telemetry overhead (≥0.95 = within budget)", "telemetry-overhead/noop", "telemetry-overhead/instrumented"),
		},
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "snapshot written to %s\n", *out)

	failed := overheadFailed
	if *baseline != "" {
		failed = checkRegression(rep, *baseline, *tolerance) || failed
	}
	if failed {
		os.Exit(1)
	}
}

// checkRegression compares the fresh report against a previous snapshot
// and reports benchmarks whose ns/op grew beyond the tolerance. Returns
// true when at least one benchmark regressed.
func checkRegression(cur Report, baselinePath string, tolerance float64) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return true
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "parsing baseline %s: %v\n", baselinePath, err)
		return true
	}
	prev := make(map[string]Measurement, len(base.Benchmarks))
	for _, m := range base.Benchmarks {
		prev[m.Name] = m
	}
	regressed := false
	for _, m := range cur.Benchmarks {
		p, ok := prev[m.Name]
		if !ok || p.NsPerOp <= 0 {
			continue
		}
		ratio := m.NsPerOp / p.NsPerOp
		if ratio > 1+tolerance {
			regressed = true
			fmt.Fprintf(os.Stderr, "REGRESSION %-36s %.0f -> %.0f ns/op (%.2fx, tolerance %.2fx)\n",
				m.Name, p.NsPerOp, m.NsPerOp, ratio, 1+tolerance)
		}
	}
	if !regressed {
		fmt.Fprintf(os.Stderr, "no regressions vs %s (tolerance %.0f%%)\n", baselinePath, 100*tolerance)
	}
	return regressed
}
