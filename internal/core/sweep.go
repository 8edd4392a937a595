package core

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// ExampleGenerator produces the data-example annotation of one module.
// *Generator, *CachedGenerator and the persistent store.Source all satisfy
// it, so batch consumers (sweeps, comparers, the serving layer) can be
// wired to a fresh heuristic run, an in-process memo, or a durable store
// interchangeably. Implementations may return a nil Report when the set
// was served from a cache or store rather than generated.
type ExampleGenerator interface {
	Generate(m *module.Module) (dataexample.Set, *Report, error)
}

// ContextExampleGenerator is an ExampleGenerator whose generation honours
// a context (deadline, cancellation, telemetry spans). All generators in
// this repository implement it; the split interface exists so external
// ExampleGenerator implementations keep working unchanged.
type ContextExampleGenerator interface {
	ExampleGenerator
	GenerateContext(ctx context.Context, m *module.Module) (dataexample.Set, *Report, error)
}

// GenerateWithContext runs gen on m, passing the context through when the
// generator supports it and falling back to plain Generate otherwise.
func GenerateWithContext(ctx context.Context, gen ExampleGenerator, m *module.Module) (dataexample.Set, *Report, error) {
	if cg, ok := gen.(ContextExampleGenerator); ok {
		return cg.GenerateContext(ctx, m)
	}
	return gen.Generate(m)
}

// SweepGenerator fans the generation heuristic out over a module catalog
// using a fixed worker pool. It exists because every consumer of batch
// generation — the coverage experiment, the Table 1/2 reproductions, the
// ablation benches, the annotation CLI — was re-implementing the same
// sequential loop over catalog entries; the sweep centralises the fan-out
// so all of them parallelise (and stay deterministic) the same way.
//
// Determinism: workers pick modules off a channel, but every result is
// written to its own slot and the assembled slice is ordered by module ID
// before it is returned, so the output is byte-identical to a sequential
// sweep regardless of worker count or scheduling (the underlying
// Generator is itself deterministic per module). Per-module Reports and
// the transient-retry semantics of Generate are preserved untouched —
// the sweep adds scheduling, never behaviour.
//
// Concurrency: the Generator is read-only during generation and the
// instance pool is concurrency-safe, so one Generator serves all workers.
// Module executors are invoked concurrently across (never within) modules;
// executors shared between modules must tolerate that, as the transport
// and simulation executors in this repository do.
type SweepGenerator struct {
	// Gen runs the per-module heuristic. Required. Any ExampleGenerator
	// works: the plain heuristic, a memoizing CachedGenerator, or a
	// store-backed source that skips modules whose annotation is already
	// persisted.
	Gen ExampleGenerator
	// Workers is the fan-out width; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Metrics, when set, receives worker-pool gauges and counters:
	// dexa_sweep_busy_workers and dexa_sweep_queue_depth track live pool
	// state while a sweep runs, dexa_sweep_generations_total counts
	// per-module generations completed across all sweeps.
	Metrics *telemetry.Registry
}

func (s *SweepGenerator) workers(jobs int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep runs Generate on every module and returns per-module results
// ordered by module ID. Failures are reported per module rather than
// aborting the batch — a registry sweep should annotate everything it can.
func (s *SweepGenerator) Sweep(mods []*module.Module) []BatchResult {
	return s.SweepContext(context.Background(), mods)
}

// sweepMetrics holds the pool's telemetry handles; every field is a
// nil-safe no-op when s.Metrics is nil.
type sweepMetrics struct {
	busy        *telemetry.Gauge
	queue       *telemetry.Gauge
	generations *telemetry.Counter
}

func (s *SweepGenerator) metrics() sweepMetrics {
	r := s.Metrics // nil receiver is fine: nil registry hands out no-op handles
	return sweepMetrics{
		busy:        r.Gauge("dexa_sweep_busy_workers", "Sweep workers currently generating."),
		queue:       r.Gauge("dexa_sweep_queue_depth", "Modules queued for generation in the running sweep."),
		generations: r.Counter("dexa_sweep_generations_total", "Per-module generations completed by sweeps."),
	}
}

// SweepContext is Sweep with a context. The context is shared by every
// worker's generation (one batch, one deadline), and when Metrics is set
// the pool reports queue depth, busy workers and completed generations.
func (s *SweepGenerator) SweepContext(ctx context.Context, mods []*module.Module) []BatchResult {
	results := make([]BatchResult, len(mods))
	sm := s.metrics()
	generate := func(i int) {
		m := mods[i]
		sm.busy.Inc()
		set, rep, err := GenerateWithContext(ctx, s.Gen, m)
		sm.busy.Dec()
		sm.generations.Inc()
		results[i] = BatchResult{ModuleID: m.ID, Examples: set, Report: rep, Err: err}
	}
	if s.workers(len(mods)) == 1 {
		// Inline fast path: a one-worker pool would pay a channel handoff
		// per module for no concurrency.
		for i := range mods {
			generate(i)
		}
		sort.Slice(results, func(i, j int) bool { return results[i].ModuleID < results[j].ModuleID })
		return results
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < s.workers(len(mods)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				generate(i)
				sm.queue.Dec()
			}
		}()
	}
	sm.queue.Add(float64(len(mods)))
	for i := range mods {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].ModuleID < results[j].ModuleID })
	return results
}
