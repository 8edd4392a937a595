package store

import (
	"context"
	"sync/atomic"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// Source wires a generator to the store: Generate serves a module's
// example set from the store when present and otherwise runs the
// underlying generator exactly once per concurrent burst (singleflight),
// persisting the result before returning it. It satisfies
// core.ExampleGenerator and match.ExampleSource, so sweeps, comparers
// and the serving layer can all draw from the durable store through the
// same interface they use for live generation.
//
// Store hits return a nil *core.Report — the report describes a
// generation run, and none happened.
type Source struct {
	st         *Store
	gen        core.ExampleGenerator
	flight     flightGroup
	runs       atomic.Uint64
	sharedHits atomic.Uint64
}

var (
	_ core.ExampleGenerator        = (*Source)(nil)
	_ core.ContextExampleGenerator = (*Source)(nil)
)

// NewSource builds a store-backed source over gen.
func NewSource(st *Store, gen core.ExampleGenerator) *Source {
	return &Source{st: st, gen: gen}
}

// Store returns the backing store.
func (s *Source) Store() *Store { return s.st }

// Runs reports how many underlying generator runs have happened — the
// observable for singleflight and warm-store tests, and a serving-layer
// statistic.
func (s *Source) Runs() uint64 { return s.runs.Load() }

// SharedHits reports how many Generate/Refresh calls were deduplicated
// onto another caller's in-flight generation instead of running their
// own. Exported as dexa_singleflight_dedup_hits_total by the telemetry
// layer.
func (s *Source) SharedHits() uint64 { return s.sharedHits.Load() }

// Generate returns the stored example set for m, generating and
// persisting it on first demand.
func (s *Source) Generate(m *module.Module) (dataexample.Set, *core.Report, error) {
	return s.GenerateContext(context.Background(), m)
}

// GenerateContext is Generate with a context (see GenerateStored).
func (s *Source) GenerateContext(ctx context.Context, m *module.Module) (dataexample.Set, *core.Report, error) {
	set, _, rep, err := s.GenerateStored(ctx, m)
	return set, rep, err
}

// GenerateStored is GenerateContext also returning the set's content
// hash, both from one stored record: a write landing between a Generate
// and a Store.Hash call would pair one record's set with the next
// record's hash. Only the caller that actually runs the generator
// propagates its context into the run; followers deduplicated onto an
// in-flight generation share the leader's result (and the leader's
// context). The store lookup and the flight are recorded as a
// "store.generate" span when a tracer is attached.
func (s *Source) GenerateStored(ctx context.Context, m *module.Module) (dataexample.Set, string, *core.Report, error) {
	if set, hash, ok := s.st.Get(m.ID); ok {
		return set, hash, nil, nil
	}
	ctx, span := telemetry.StartSpan(ctx, "store.generate")
	span.Annotate("module", m.ID)
	set, hash, rep, err, shared := s.flight.do(m.ID, func() (dataexample.Set, string, *core.Report, error) {
		// Double-check under the flight: a previous leader may have landed
		// the set between our miss and our takeoff.
		if set, hash, ok := s.st.Get(m.ID); ok {
			return set, hash, nil, nil
		}
		s.runs.Add(1)
		set, rep, err := core.GenerateWithContext(ctx, s.gen, m)
		if err != nil {
			return nil, "", rep, err
		}
		hash, _, err := s.st.Put(m.ID, set)
		if err != nil {
			return nil, "", rep, err
		}
		return set, hash, rep, nil
	})
	if shared {
		s.sharedHits.Add(1)
		span.Annotate("deduplicated", "true")
	}
	span.Fail(err)
	span.End()
	return set, hash, rep, err
}

// Refresh regenerates the module's examples unconditionally (bypassing
// the store read path, still deduplicating concurrent refreshes) and
// persists the result. It reports whether the stored content actually
// changed — re-annotation of a stable module is a content-hash no-op.
func (s *Source) Refresh(m *module.Module) (set dataexample.Set, rep *core.Report, changed bool, err error) {
	set, _, rep, changed, err = s.RefreshStored(context.Background(), m)
	return set, rep, changed, err
}

// RefreshStored is Refresh with a context, also returning the content
// hash of the record the refresh wrote (see GenerateStored). It is
// recorded as a "store.refresh" span when a tracer is attached.
func (s *Source) RefreshStored(ctx context.Context, m *module.Module) (set dataexample.Set, hash string, rep *core.Report, changed bool, err error) {
	ctx, span := telemetry.StartSpan(ctx, "store.refresh")
	span.Annotate("module", m.ID)
	defer func() {
		span.Fail(err)
		span.End()
	}()
	var didChange bool
	set, hash, rep, err, shared := s.flight.do("refresh\x00"+m.ID, func() (dataexample.Set, string, *core.Report, error) {
		s.runs.Add(1)
		set, rep, err := core.GenerateWithContext(ctx, s.gen, m)
		if err != nil {
			return nil, "", rep, err
		}
		hash, ch, err := s.st.Put(m.ID, set)
		if err != nil {
			return nil, "", rep, err
		}
		didChange = ch
		return set, hash, rep, nil
	})
	if shared {
		s.sharedHits.Add(1)
		span.Annotate("deduplicated", "true")
		// A concurrent refresh did the work; whether the content changed
		// belongs to that caller. For this one nothing further changed.
		return set, hash, rep, false, err
	}
	return set, hash, rep, didChange, err
}
