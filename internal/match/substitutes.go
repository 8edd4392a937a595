package match

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// Unavailable describes a module that can no longer be invoked: its
// parameter signature (from the registry) and the data examples
// reconstructed from provenance traces.
type Unavailable struct {
	Signature *module.Module
	Examples  dataexample.Set
}

// Candidate pairs a substitute candidate with its comparison result.
type Candidate struct {
	Module *module.Module
	Result Result
}

// Skipped records a candidate that could not be compared — its executor
// failed in a way that is neither an abnormal termination nor a transient
// recovery (those are handled inside the comparison), or its comparison
// panicked — together with the reason. Skipped candidates are excluded
// from the ranking but no longer abort the whole search: one broken
// candidate must not hide every other viable substitute.
type Skipped struct {
	ModuleID string
	Reason   string
}

// Substitutes is the outcome of a substitute search.
type Substitutes struct {
	// Ranked lists the qualifying candidates best-first (see FindSubstitutes
	// for the order).
	Ranked []Candidate
	// Skipped lists candidates whose comparison errored, in catalog order.
	Skipped []Skipped
}

// FindSubstitutes ranks the available modules that can play the role of
// the unavailable one: Equivalent candidates first, then Overlapping by
// descending agreement score, ties broken by module ID for determinism.
// Disjoint and Incomparable candidates are excluded; candidates whose
// comparison errors (or panics) are reported in Skipped rather than
// failing the search.
//
// When the Comparer carries a CatalogIndex, candidates whose signature
// provably admits no parameter mapping are pruned before any example
// comparison or module invocation; the result is byte-identical to the
// exhaustive search because such candidates could only ever come back
// Incomparable, which neither ranks nor skips.
//
// Candidates are compared concurrently (Comparer.Workers bounds the
// fan-out; <= 0 selects GOMAXPROCS). Each candidate module is invoked by
// exactly one worker, and the ranking and skip list are assembled in a
// deterministic order independent of scheduling, so the result is
// byte-identical to a sequential search.
func (c *Comparer) FindSubstitutes(target Unavailable, available []*module.Module) (Substitutes, error) {
	return c.FindSubstitutesContext(context.Background(), target, available)
}

// FindSubstitutesContext is FindSubstitutes with a context: when a tracer
// rides the context the search records a span annotated with the
// candidate, pruned and compared counts (the prune ratio shows up in
// /debug/traces per request).
func (c *Comparer) FindSubstitutesContext(ctx context.Context, target Unavailable, available []*module.Module) (Substitutes, error) {
	if target.Signature == nil {
		return Substitutes{}, fmt.Errorf("match: unavailable module has no signature")
	}
	if len(target.Examples) == 0 {
		return Substitutes{}, fmt.Errorf("match: unavailable module %s has no data examples", target.Signature.ID)
	}
	_, span := telemetry.StartSpan(ctx, "match.find_substitutes")
	defer span.End()
	span.Annotate("target", target.Signature.ID)
	span.Annotate("mode", c.Mode.String())
	met := newMatchMetrics(c.Metrics)
	met.searches.Inc()

	var feas *Feasibility
	if c.Index != nil {
		feas = c.Index.Feasibility(target.Signature, c.Mode)
	}
	keyed := target.Examples.Keyed()

	type slot struct {
		res Result
		err error
	}
	slots := make([]slot, len(available))
	// compareOne runs one candidate comparison, converting a panic
	// anywhere below (a hostile executor, a malformed example) into an
	// error so the candidate lands in Skipped. Without the recover, a
	// panicking worker would kill its goroutine and the job feed below
	// would block forever on the dead pool.
	compareOne := func(i int) (res Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("match: comparing candidate %s: panic: %v", available[i].ID, p)
			}
		}()
		return c.compareAgainstKeyedExamples(target.Signature, keyed, available[i])
	}
	// runnable enumerates the candidate indices that actually compare:
	// the target itself never competes, and index-pruned candidates are
	// settled as Incomparable without running (the zero slot).
	pruned := 0
	runnable := make([]int, 0, len(available))
	for i, cand := range available {
		if cand.ID == target.Signature.ID {
			continue // never propose the unavailable module as its own substitute
		}
		if feas.Prunes(cand.ID) {
			pruned++
			continue
		}
		runnable = append(runnable, i)
	}

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runnable) {
		workers = len(runnable)
	}
	if workers <= 1 {
		// Inline fast path: a one-worker pool would pay a channel handoff
		// per candidate for no concurrency.
		for _, i := range runnable {
			res, err := compareOne(i)
			slots[i] = slot{res: res, err: err}
		}
	} else {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					res, err := compareOne(i)
					slots[i] = slot{res: res, err: err}
				}
			}()
		}
		for _, i := range runnable {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	met.comparisons.Add(uint64(len(runnable)))
	met.pruned.Add(uint64(pruned))
	span.Annotate("candidates", strconv.Itoa(len(runnable)+pruned))
	span.Annotate("compared", strconv.Itoa(len(runnable)))
	span.Annotate("pruned", strconv.Itoa(pruned))
	if total := len(runnable) + pruned; total > 0 {
		span.Annotate("prune_ratio", strconv.FormatFloat(float64(pruned)/float64(total), 'f', 3, 64))
	}

	var out Substitutes
	for i, cand := range available {
		if cand.ID == target.Signature.ID {
			continue
		}
		s := slots[i]
		if s.err != nil {
			out.Skipped = append(out.Skipped, Skipped{ModuleID: cand.ID, Reason: s.err.Error()})
			continue
		}
		if s.res.Verdict == Equivalent || s.res.Verdict == Overlapping {
			out.Ranked = append(out.Ranked, Candidate{Module: cand, Result: s.res})
		}
	}
	sort.Slice(out.Ranked, func(i, j int) bool {
		a, b := out.Ranked[i], out.Ranked[j]
		if a.Result.Verdict != b.Result.Verdict {
			return a.Result.Verdict > b.Result.Verdict
		}
		if a.Result.Score() != b.Result.Score() {
			return a.Result.Score() > b.Result.Score()
		}
		return a.Module.ID < b.Module.ID
	})
	return out, nil
}
