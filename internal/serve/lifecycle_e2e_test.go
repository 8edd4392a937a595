package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/lifecycle"
	"dexa/internal/match"
	"dexa/internal/resilient"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/workflow"
)

// TestLifecycleEndToEnd is the acceptance run for the live catalog
// lifecycle: a scripted decay schedule (the §6 decay model applied to
// live catalog modules) plays out under the fake clock while the manager
// probes. The scenario requires that
//
//   - every decayed module is detected within one probe cycle,
//   - the drifted module walks suspect → quarantined → retired and its
//     workflow-repair proposal byte-matches the offline workflow.Repair
//     oracle for the same catalog state,
//   - the dead module recovers through probation and is re-admitted,
//   - /watch serves the totally ordered event stream, and
//   - the whole scripted run is deterministic: two fresh runs produce
//     byte-identical event logs and proposal queues.
func TestLifecycleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full simulation universe twice")
	}
	events1, props1 := runLifecycleScenario(t)
	events2, props2 := runLifecycleScenario(t)
	if string(events1) != string(events2) {
		t.Errorf("scripted runs produced different event logs:\n%s\n---\n%s", events1, events2)
	}
	if string(props1) != string(props2) {
		t.Errorf("scripted runs produced different repair queues:\n%s\n---\n%s", props1, props2)
	}
}

func runLifecycleScenario(t *testing.T) (eventsJSON, proposalsJSON []byte) {
	t.Helper()
	const (
		drifter  = "getProteinFasta"
		deadOne  = "getNucleotideGenBank"
		interval = time.Minute
	)
	tracked := []string{drifter, drifter + "-mirror", deadOne, deadOne + "-mirror"}

	u := simulation.NewUniverse()
	clock := resilient.NewFakeClock()
	start := clock.Now()

	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	source := store.NewSource(st, u.Gen)
	for _, id := range tracked {
		e, ok := u.Registry.Get(id)
		if !ok {
			t.Fatalf("universe has no module %s", id)
		}
		if _, _, err := source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s: %v", id, err)
		}
	}

	cmp := match.NewComparer(u.Ont, source)
	cmp.Index = match.NewCatalogIndex(u.Ont, u.Registry.Modules())
	SyncIndex(u.Registry, cmp.Index)

	stored := func(id string) (dataexample.Set, bool) {
		set, _, ok := st.Get(id)
		return set, ok
	}
	newRepairer := func() *workflow.Repairer {
		exact := match.NewComparer(u.Ont, source)
		relaxed := match.NewComparer(u.Ont, source)
		relaxed.Mode = match.ModeRelaxed
		return &workflow.Repairer{Reg: u.Registry, Exact: exact, Relaxed: relaxed, Examples: stored}
	}
	wfEntry, _ := u.Registry.Get(drifter)
	wf := oneStepWorkflow("wf-live-1", "live pipeline", wfEntry.Module)

	log, err := lifecycle.OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	queue, err := lifecycle.OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	defer queue.Close()
	mgr, err := lifecycle.NewManager(lifecycle.Config{
		Interval: interval, Jitter: -1,
		QuarantineAfter: 2, RetireAfter: 2, Probation: 2,
		Policy: resilient.Policy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
	}, lifecycle.Deps{
		Registry: u.Registry,
		Examples: st,
		Log:      log,
		Queue:    queue,
		Planner: &lifecycle.Planner{
			Comparer: cmp, Store: st, Registry: u.Registry,
			Repairer: newRepairer(), Workflows: []*workflow.Workflow{wf},
		},
		Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Track(tracked...)

	// The script: ninety seconds in, one provider silently changes its
	// output format and another goes dark; the dark one comes back ten
	// minutes in.
	decayAt := start.Add(90 * time.Second)
	recoverAt := start.Add(10 * time.Minute)
	sched, err := newDecaySchedule(u, start, []decayEvent{
		{After: 90 * time.Second, ModuleID: drifter, Mode: decayDrift},
		{After: 90 * time.Second, ModuleID: deadOne, Mode: decayDeath},
		{After: 10 * time.Minute, ModuleID: deadOne, Mode: decayRecover},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the probe loop the way Manager.Run would, advancing the fake
	// clock straight to each next-due instant.
	ctx := context.Background()
	deadline := start.Add(30 * time.Minute)
	for {
		next, ok := mgr.NextDue()
		if !ok || next.After(deadline) {
			break
		}
		if next.After(clock.Now()) {
			clock.Advance(next.Sub(clock.Now()))
		}
		sched.catchUp(clock.Now())
		if _, err := mgr.RunDue(ctx); err != nil {
			t.Fatalf("RunDue: %v", err)
		}
	}
	if sched.remaining() != 0 {
		t.Fatalf("%d scripted decay events never fired", sched.remaining())
	}

	// Final states: the drifter is retired, the dead-then-recovered
	// module is healthy and available again, the mirrors never moved.
	mustStateE2E(t, mgr, drifter, lifecycle.StateRetired)
	mustStateE2E(t, mgr, deadOne, lifecycle.StateHealthy)
	mustStateE2E(t, mgr, drifter+"-mirror", lifecycle.StateHealthy)
	mustStateE2E(t, mgr, deadOne+"-mirror", lifecycle.StateHealthy)
	if e, _ := u.Registry.Get(drifter); e.Available {
		t.Error("retired drifter still available")
	}
	if e, _ := u.Registry.Get(deadOne); !e.Available {
		t.Error("re-admitted module not available")
	}

	events, _ := log.Since(0, 0)
	if len(events) == 0 {
		t.Fatal("no lifecycle events recorded")
	}
	// Detection latency: the first bad-probe transition of each decayed
	// module must land within one probe cycle of the decay instant.
	firstBad := map[string]time.Time{}
	for _, ev := range events {
		if ev.To == lifecycle.StateSuspect {
			if _, seen := firstBad[ev.Module]; !seen {
				firstBad[ev.Module] = ev.At
			}
		}
	}
	for _, id := range []string{drifter, deadOne} {
		at, ok := firstBad[id]
		if !ok {
			t.Fatalf("decay of %s never detected", id)
		}
		if at.After(decayAt.Add(interval)) {
			t.Errorf("decay of %s detected at %v, more than one cycle after %v", id, at, decayAt)
		}
	}
	// The recovered module was re-admitted after probation, after the
	// scripted recovery instant.
	var readmitted bool
	for _, ev := range events {
		if ev.Module == deadOne && ev.From == lifecycle.StateProbation && ev.To == lifecycle.StateHealthy {
			readmitted = true
			if ev.At.Before(recoverAt) {
				t.Errorf("re-admission at %v precedes the recovery at %v", ev.At, recoverAt)
			}
		}
	}
	if !readmitted {
		t.Error("recovered module never finished probation")
	}

	// Repair-as-a-service: retirement enqueued a module-level substitute
	// proposal naming the mirror, plus one workflow proposal whose
	// replacements byte-match the offline repair oracle.
	props := queue.List("")
	var modProp, wfProp *lifecycle.Proposal
	for i := range props {
		p := &props[i]
		if p.Module != drifter {
			t.Errorf("unexpected proposal for %s", p.Module)
			continue
		}
		if p.WorkflowID == "" {
			modProp = p
		} else if p.WorkflowID == wf.ID {
			wfProp = p
		}
	}
	if modProp == nil || len(modProp.Substitutes) == 0 || modProp.Substitutes[0].ModuleID != drifter+"-mirror" {
		t.Fatalf("module-level proposal = %+v", modProp)
	}
	if wfProp == nil {
		t.Fatal("no workflow repair proposal enqueued")
	}
	oracle, err := newRepairer().Repair(wf)
	if err != nil {
		t.Fatalf("offline repair oracle: %v", err)
	}
	if wfProp.Status != oracle.Status.String() {
		t.Errorf("proposal status %q, oracle %q", wfProp.Status, oracle.Status)
	}
	gotRepl, _ := json.Marshal(wfProp.Replacements)
	wantRepl, _ := json.Marshal(oracle.Replacements)
	if string(gotRepl) != string(wantRepl) {
		t.Errorf("proposal replacements diverge from the offline oracle:\n%s\n---\n%s", gotRepl, wantRepl)
	}
	if oracle.Status != workflow.FullyRepaired {
		t.Errorf("oracle status = %v, want FullyRepaired via the mirror", oracle.Status)
	}

	// The change feed serves the same events, totally ordered, over HTTP.
	srv := &Server{Registry: u.Registry, Store: st, Source: source, Comparer: cmp, Lifecycle: mgr}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var feed struct {
		Events []lifecycle.Event `json:"events"`
		Cursor uint64            `json:"cursor"`
	}
	resp := getJSON(t, ts.URL+"/watch?cursor=0", &feed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	if len(feed.Events) != len(events) || feed.Cursor != uint64(len(events)) {
		t.Fatalf("watch served %d events (cursor %d), log has %d", len(feed.Events), feed.Cursor, len(events))
	}
	for i, ev := range feed.Events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("watch event %d has seq %d — stream not contiguous", i, ev.Seq)
		}
	}

	eventsJSON, err = json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	proposalsJSON, err = json.Marshal(props)
	if err != nil {
		t.Fatal(err)
	}
	return eventsJSON, proposalsJSON
}

func mustStateE2E(t *testing.T, mgr *lifecycle.Manager, id string, want lifecycle.State) {
	t.Helper()
	got, ok := mgr.StateOf(id)
	if !ok || got != want {
		t.Errorf("state of %s = %v (tracked=%v), want %v", id, got, ok, want)
	}
}
