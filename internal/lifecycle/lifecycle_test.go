package lifecycle

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/resilient"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/typesys"
)

// seqModule builds a Seq->Acc string module computing fn.
func seqModule(id string, fn func(s string) string) *module.Module {
	m := &module.Module{
		ID: id, Name: "module " + id, Kind: module.Kind(0),
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: "Acc"}},
	}
	m.Bind(seqExec(fn))
	return m
}

func seqExec(fn func(s string) string) module.ExecFunc {
	return func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"acc": typesys.Str(fn(string(in["seq"].(typesys.StringValue))))}, nil
	}
}

// deadExec fails every call transiently — an unreachable provider.
func deadExec(id string) module.ExecFunc {
	return func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return nil, module.Transient(id, module.FaultUnavailable, errors.New("provider gone"))
	}
}

// exampleSet hand-writes n stored examples consistent with fn.
func exampleSet(n int, fn func(s string) string) dataexample.Set {
	set := make(dataexample.Set, n)
	for i := range set {
		in := fmt.Sprintf("ACGT-%d", i)
		set[i] = dataexample.Example{
			Inputs:  map[string]typesys.Value{"seq": typesys.Str(in)},
			Outputs: map[string]typesys.Value{"acc": typesys.Str(fn(in))},
		}
	}
	return set
}

// world is a minimal lifecycle test bed: a registry of Seq->Acc modules,
// a memory store annotated with examples matching their pristine
// behaviour, a catalog index, and a manager on a fake clock.
type world struct {
	clock *resilient.FakeClock
	reg   *registry.Registry
	st    *store.Store
	ix    *match.CatalogIndex
	log   *Log
	queue *Queue
	mgr   *Manager
}

// fastPolicy keeps probes single-attempt so fake time only moves when a
// test advances it.
var fastPolicy = resilient.Policy{MaxAttempts: 1}

func newWorld(t *testing.T, cfg Config, behaviours map[string]func(string) string) *world {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("Acc", "", "Data")

	w := &world{clock: resilient.NewFakeClock(), reg: registry.New()}
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	w.st = st
	for id, fn := range behaviours {
		w.reg.MustRegister(seqModule(id, fn))
		if _, _, err := st.Put(id, exampleSet(4, fn)); err != nil {
			t.Fatal(err)
		}
	}
	w.ix = match.NewCatalogIndex(o, w.reg.Modules())
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	w.log = log
	w.queue, err = OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	w.mgr, err = NewManager(cfg, Deps{
		Registry: w.reg, Examples: st, Index: w.ix,
		Log: log, Queue: w.queue, Clock: w.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// rebind swaps a module's executor, simulating provider decay/recovery.
func (w *world) rebind(t *testing.T, id string, exec module.Executor) {
	t.Helper()
	e, ok := w.reg.Get(id)
	if !ok {
		t.Fatalf("no module %s", id)
	}
	e.Module.Bind(exec)
}

// sweep advances the fake clock by d and runs every due probe.
func (w *world) sweep(t *testing.T, d time.Duration) []ProbeResult {
	t.Helper()
	w.clock.Advance(d)
	res, err := w.mgr.RunDue(context.Background())
	if err != nil {
		t.Fatalf("RunDue: %v", err)
	}
	return res
}

func (w *world) mustState(t *testing.T, id string, want State) {
	t.Helper()
	got, ok := w.mgr.StateOf(id)
	if !ok || got != want {
		t.Fatalf("state of %s = %v (tracked=%v), want %v", id, got, ok, want)
	}
}

func TestProbeClassification(t *testing.T) {
	identity := func(s string) string { return "X:" + s }
	set := exampleSet(3, identity)
	ctx := context.Background()

	if res := probe(ctx, "m", seqExec(identity), set, 0); res.Outcome != ProbeHealthy || res.Compared != 3 || res.Agreeing != 3 {
		t.Errorf("healthy probe = %+v", res)
	}
	// Silent format change: the module answers, wrongly.
	mutant := func(s string) string { return "LEGACY\n" + identity(s) }
	if res := probe(ctx, "m", seqExec(mutant), set, 0); res.Outcome != ProbeDrifted || res.Agreeing != 0 {
		t.Errorf("drifted probe = %+v", res)
	}
	// All calls fault transiently: the provider is gone.
	if res := probe(ctx, "m", deadExec("m"), set, 0); res.Outcome != ProbeDead || res.Faults != 3 || res.Err == "" {
		t.Errorf("dead probe = %+v", res)
	}
	// A previously valid input now rejected is drift, not a fault.
	reject := module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return nil, errors.New("input no longer supported")
	})
	if res := probe(ctx, "m", reject, set, 0); res.Outcome != ProbeDrifted || res.Compared != 3 || res.Faults != 0 {
		t.Errorf("rejecting probe = %+v", res)
	}
	// Some faults, but every completed call agreed: a transient blip.
	n := 0
	flaky := module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		n++
		if n == 1 {
			return nil, module.Transient("m", module.FaultUnavailable, errors.New("blip"))
		}
		return seqExec(identity)(in)
	})
	if res := probe(ctx, "m", flaky, set, 0); res.Outcome != ProbeHealthy || res.Faults != 1 || res.Agreeing != 2 {
		t.Errorf("flaky-but-agreeing probe = %+v", res)
	}
	// No stored examples: nothing to diff against.
	if res := probe(ctx, "m", seqExec(identity), nil, 0); res.Outcome != ProbeSkipped {
		t.Errorf("skipped probe = %+v", res)
	}
	// maxExamples caps the work.
	if res := probe(ctx, "m", seqExec(identity), set, 2); res.Compared != 2 {
		t.Errorf("capped probe compared %d, want 2", res.Compared)
	}
	if res := probe(ctx, "m", nil, set, 0); res.Outcome != ProbeDead {
		t.Errorf("nil-executor probe = %+v", res)
	}
}

// TestDriftQuarantineRetire walks a drifting module through the whole
// decline: suspect on the first bad probe, quarantined (and pulled from
// the catalog and the index) after QuarantineAfter, retired after
// RetireAfter more, at which point probing stops.
func TestDriftQuarantineRetire(t *testing.T) {
	interval := time.Minute
	w := newWorld(t, Config{
		Interval: interval, Jitter: -1, // -1 clamps to zero jitter
		QuarantineAfter: 2, RetireAfter: 2, Policy: fastPolicy,
	}, map[string]func(string) string{
		"alpha": func(s string) string { return "X:" + s },
		"beta":  func(s string) string { return "X:" + s },
	})
	w.mgr.Track("alpha", "beta")

	// First pass: everything healthy, no transitions.
	w.sweep(t, interval)
	if seq := w.log.Seq(); seq != 0 {
		t.Fatalf("healthy sweep logged %d events", seq)
	}
	w.mustState(t, "alpha", StateHealthy)

	// Alpha starts answering in a changed format.
	w.rebind(t, "alpha", seqExec(func(s string) string { return "LEGACY\nX:" + s }))
	genBefore := w.ix.Generation()

	w.sweep(t, interval)
	w.mustState(t, "alpha", StateSuspect)
	if e, _ := w.reg.Get("alpha"); !e.Available {
		t.Fatal("suspect module should stay available")
	}

	w.sweep(t, interval)
	w.mustState(t, "alpha", StateQuarantined)
	if e, _ := w.reg.Get("alpha"); e.Available {
		t.Fatal("quarantined module still available")
	}
	if w.ix.Generation() == genBefore {
		t.Fatal("quarantine did not bump the index generation")
	}

	w.sweep(t, interval) // bad streak 1 of RetireAfter
	w.mustState(t, "alpha", StateQuarantined)
	w.sweep(t, interval)
	w.mustState(t, "alpha", StateRetired)

	// Retired modules drop off the schedule.
	before := w.log.Seq()
	for i := 0; i < 3; i++ {
		for _, res := range w.sweep(t, interval) {
			if res.Module == "alpha" {
				t.Fatal("retired module was probed")
			}
		}
	}
	if w.log.Seq() != before {
		t.Fatal("retired module kept producing events")
	}

	events, _ := w.log.Since(0, 0)
	var got []string
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		got = append(got, fmt.Sprintf("%s:%s->%s", ev.Module, ev.From, ev.To))
	}
	want := []string{
		"alpha:healthy->suspect",
		"alpha:suspect->quarantined",
		"alpha:quarantined->retired",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	// Beta never left healthy.
	w.mustState(t, "beta", StateHealthy)
	if e, _ := w.reg.Get("beta"); !e.Available {
		t.Fatal("healthy module lost availability")
	}
}

// TestRecoveryThroughProbation quarantines a dead module, recovers the
// provider, and checks the probation path back: availability and the
// index entry are restored only after the configured streak of healthy
// probes, and a relapse during probation goes straight back to
// quarantine.
func TestRecoveryThroughProbation(t *testing.T) {
	interval := time.Minute
	w := newWorld(t, Config{
		Interval: interval, Jitter: -1,
		QuarantineAfter: 2, RetireAfter: 100, Probation: 2,
		MaxBackoffShift: 1, Policy: fastPolicy,
	}, map[string]func(string) string{
		"alpha": func(s string) string { return "X:" + s },
	})
	w.mgr.Track("alpha")
	original := seqExec(func(s string) string { return "X:" + s })

	w.rebind(t, "alpha", deadExec("alpha"))
	w.sweep(t, interval)   // suspect
	w.sweep(t, 2*interval) // quarantined (dead probes back off: shift 1 -> 2m)
	w.mustState(t, "alpha", StateQuarantined)

	// Provider comes back.
	w.rebind(t, "alpha", original)
	genBefore := w.ix.Generation()
	w.sweep(t, 2*interval)
	w.mustState(t, "alpha", StateProbation)
	if e, _ := w.reg.Get("alpha"); e.Available {
		t.Fatal("probation must not restore availability yet")
	}

	// Relapse during probation: straight back to quarantine.
	w.rebind(t, "alpha", deadExec("alpha"))
	w.sweep(t, interval)
	w.mustState(t, "alpha", StateQuarantined)

	// Recover again and serve out the full probation.
	w.rebind(t, "alpha", original)
	w.sweep(t, 2*interval)
	w.mustState(t, "alpha", StateProbation)
	w.sweep(t, interval)
	w.mustState(t, "alpha", StateHealthy)
	if e, _ := w.reg.Get("alpha"); !e.Available {
		t.Fatal("re-admitted module should be available")
	}
	if w.ix.Generation() == genBefore {
		t.Fatal("re-admission did not restore the index entry")
	}

	events, _ := w.log.Since(0, 0)
	var got []string
	for _, ev := range events {
		got = append(got, fmt.Sprintf("%s->%s", ev.From, ev.To))
	}
	want := []string{
		"healthy->suspect", "suspect->quarantined",
		"quarantined->probation", "probation->quarantined",
		"quarantined->probation", "probation->healthy",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

// TestDeadBackoff: probes of a dead provider space out exponentially up
// to the cap, and snap back to the base interval once it answers again.
func TestDeadBackoff(t *testing.T) {
	interval := time.Minute
	w := newWorld(t, Config{
		Interval: interval, Jitter: -1,
		QuarantineAfter: 100, RetireAfter: 100, // stay in suspect forever
		MaxBackoffShift: 2, Policy: fastPolicy,
	}, map[string]func(string) string{
		"alpha": func(s string) string { return "X:" + s },
	})
	w.mgr.Track("alpha")
	w.sweep(t, interval) // healthy baseline

	w.rebind(t, "alpha", deadExec("alpha"))
	wantGaps := []time.Duration{
		2 * interval, // shift 1
		4 * interval, // shift 2
		4 * interval, // capped
		4 * interval, // still capped
	}
	for i, want := range wantGaps {
		if res := w.sweep(t, gapTo(t, w)); len(res) != 1 || res[0].Outcome != ProbeDead {
			t.Fatalf("dead sweep %d = %+v", i, res)
		}
		if got := gapTo(t, w); got != want {
			t.Fatalf("backoff gap %d = %v, want %v", i, got, want)
		}
	}

	// Recovery resets the backoff to the base interval.
	w.rebind(t, "alpha", seqExec(func(s string) string { return "X:" + s }))
	w.sweep(t, gapTo(t, w))
	if got := gapTo(t, w); got != interval {
		t.Fatalf("gap after recovery = %v, want %v", got, interval)
	}
}

// gapTo returns how far ahead of the fake clock the next probe sits.
func gapTo(t *testing.T, w *world) time.Duration {
	t.Helper()
	next, ok := w.mgr.NextDue()
	if !ok {
		t.Fatal("nothing scheduled")
	}
	return next.Sub(w.clock.Now())
}

// TestPhaseSpreadNoThunderingHerd: tracking a large catalog spreads the
// first probes across [0, Interval) instead of firing them all at once.
func TestPhaseSpreadNoThunderingHerd(t *testing.T) {
	interval := 10 * time.Minute
	behaviours := map[string]func(string) string{}
	for i := 0; i < 40; i++ {
		behaviours[fmt.Sprintf("mod-%02d", i)] = func(s string) string { return "X:" + s }
	}
	w := newWorld(t, Config{Interval: interval, Policy: fastPolicy}, behaviours)
	w.mgr.Track(w.mgr.reg.IDs()...)

	now := w.clock.Now()
	distinct := map[time.Time]bool{}
	var min, max time.Duration = interval, 0
	for _, ms := range w.mgr.Status() {
		phase := ms.NextProbe.Sub(now)
		if phase < 0 || phase >= interval {
			t.Fatalf("phase of %s = %v, outside [0, %v)", ms.Module, phase, interval)
		}
		distinct[ms.NextProbe] = true
		if phase < min {
			min = phase
		}
		if phase > max {
			max = phase
		}
	}
	if len(distinct) < 30 {
		t.Fatalf("only %d distinct phases across 40 modules", len(distinct))
	}
	if max-min < interval/4 {
		t.Fatalf("phases bunched into %v of a %v interval", max-min, interval)
	}
}

// TestJitteredRescheduling: consecutive healthy probes land within
// ±Jitter of the base interval, and the offsets vary probe to probe.
func TestJitteredRescheduling(t *testing.T) {
	interval := time.Minute
	jitter := 0.2
	w := newWorld(t, Config{Interval: interval, Jitter: jitter, Policy: fastPolicy},
		map[string]func(string) string{"alpha": func(s string) string { return "X:" + s }})
	w.mgr.Track("alpha")

	lo := time.Duration(float64(interval) * (1 - jitter))
	hi := time.Duration(float64(interval) * (1 + jitter))
	distinct := map[time.Duration]bool{}
	for i := 0; i < 12; i++ {
		w.sweep(t, gapTo(t, w))
		gap := gapTo(t, w)
		if gap < lo || gap > hi {
			t.Fatalf("probe %d rescheduled %v ahead, outside [%v, %v]", i, gap, lo, hi)
		}
		distinct[gap] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct jittered gaps in 12 probes", len(distinct))
	}
}

// TestProbeRidesRetryStack: a probe retries transient faults through the
// resilient executor before concluding anything, so a provider that
// needs two attempts still counts as healthy.
func TestProbeRidesRetryStack(t *testing.T) {
	interval := time.Minute
	w := newWorld(t, Config{
		Interval: interval, Jitter: -1,
		Policy: resilient.Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	}, map[string]func(string) string{
		"alpha": func(s string) string { return "X:" + s },
	})
	w.mgr.Track("alpha")

	calls := 0
	w.rebind(t, "alpha", module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		calls++
		if calls%2 == 1 {
			return nil, module.Transient("alpha", module.FaultThrottled, errors.New("429"))
		}
		return seqExec(func(s string) string { return "X:" + s })(in)
	}))
	res := w.sweep(t, interval)
	if len(res) != 1 || res[0].Outcome != ProbeHealthy {
		t.Fatalf("flaky provider probe = %+v", res)
	}
	if w.clock.Slept() == 0 {
		t.Fatal("retries did not back off through the shared clock")
	}
	w.mustState(t, "alpha", StateHealthy)
}

// TestSkippedModulesNeverTransition: a tracked module without stored
// examples is probed but never moved, whatever its executor does.
func TestSkippedModulesNeverTransition(t *testing.T) {
	w := newWorld(t, Config{Interval: time.Minute, Jitter: -1, Policy: fastPolicy},
		map[string]func(string) string{"alpha": func(s string) string { return "X:" + s }})
	w.reg.MustRegister(seqModule("bare", func(s string) string { return s }))
	w.mgr.Track("bare")
	w.rebind(t, "bare", deadExec("bare"))
	for i := 0; i < 4; i++ {
		w.sweep(t, 2*time.Minute)
	}
	w.mustState(t, "bare", StateHealthy)
	if seq := w.log.Seq(); seq != 0 {
		t.Fatalf("skipped probes logged %d events", seq)
	}
}

// TestScriptedRunsAreDeterministic replays the same decay script in two
// fresh worlds and requires byte-identical event logs — the property the
// fake clock, sorted application order, and hashed jitter exist for.
func TestScriptedRunsAreDeterministic(t *testing.T) {
	run := func() []byte {
		w := newWorld(t, Config{
			Interval: time.Minute, Jitter: 0.3,
			QuarantineAfter: 2, RetireAfter: 2, Probation: 2,
			Workers: 4,
			Policy:  resilient.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		}, map[string]func(string) string{
			"alpha": func(s string) string { return "X:" + s },
			"beta":  func(s string) string { return "Y:" + s },
			"gamma": func(s string) string { return "Z:" + s },
			"delta": func(s string) string { return "W:" + s },
		})
		w.mgr.Track(w.reg.IDs()...)
		for i := 0; i < 20; i++ {
			switch i {
			case 3:
				w.rebind(t, "alpha", seqExec(func(s string) string { return "LEGACY\nX:" + s }))
				w.rebind(t, "beta", deadExec("beta"))
			case 9:
				w.rebind(t, "beta", seqExec(func(s string) string { return "Y:" + s }))
			}
			w.sweep(t, 90*time.Second)
		}
		events, _ := w.log.Since(0, 0)
		b, err := json.Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two identical scripted runs diverged:\n%s\n---\n%s", a, b)
	}
}

// BenchmarkProbeSweep measures the manager re-probing every annotated
// catalog module against its stored examples under the fake clock. cold
// is what the service pays at boot: Track's phase spread plus each
// module's resilient wrapper built on first probe. warm is the steady
// state a running dexa-serve pays every interval: advance one period and
// re-invoke each module on its stored example inputs.
func BenchmarkProbeSweep(b *testing.B) {
	u := simulation.NewUniverse()
	st, err := store.Open("", store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	src := store.NewSource(st, u.Gen)
	var ids []string
	for _, e := range u.Catalog.Entries {
		if _, _, err := src.Generate(e.Module); err == nil {
			ids = append(ids, e.Module.ID)
		}
	}
	clock := resilient.NewFakeClock()
	manager := func(tb testing.TB) *Manager {
		log, err := OpenLog("")
		if err != nil {
			tb.Fatal(err)
		}
		mgr, err := NewManager(Config{Interval: time.Minute, Jitter: -1, Policy: fastPolicy},
			Deps{Registry: u.Registry, Examples: st, Log: log, Clock: clock})
		if err != nil {
			tb.Fatal(err)
		}
		mgr.Track(ids...)
		return mgr
	}
	sweep := func(tb testing.TB, mgr *Manager) []ProbeResult {
		clock.Advance(time.Minute)
		res, err := mgr.RunDue(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		if len(res) != len(ids) {
			tb.Fatalf("sweep probed %d of %d modules", len(res), len(ids))
		}
		return res
	}
	// A healthy catalog must stay healthy under probing, or the benchmark
	// would time state transitions instead of sweeps (and a dead module's
	// backoff would starve later sweeps).
	for _, r := range sweep(b, manager(b)) {
		if r.Outcome != ProbeHealthy {
			b.Fatalf("preflight: %s is %s (%v)", r.Module, r.Outcome, r.Err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, manager(b))
		}
	})
	b.Run("warm", func(b *testing.B) {
		mgr := manager(b)
		sweep(b, mgr) // build every wrapper before the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, mgr)
		}
	})
}
