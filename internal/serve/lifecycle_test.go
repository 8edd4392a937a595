package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/lifecycle"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/resilient"
	"dexa/internal/search"
	"dexa/internal/store"
	"dexa/internal/typesys"
)

// lifecycleFixture is the serve fixture with the live catalog lifecycle
// wired as dexa-serve wires it: stored annotations for all three
// modules, a catalog index and a search index both following the
// registry's availability hook, and a manager on a fake clock.
type lifecycleFixture struct {
	*fixture
	clock *resilient.FakeClock
	mgr   *lifecycle.Manager
	lts   *httptest.Server
}

func newLifecycleFixture(t *testing.T) *lifecycleFixture {
	t.Helper()
	f := newFixture(t, "")
	for _, id := range []string{"alpha", "beta", "gamma"} {
		e, _ := f.reg.Get(id)
		if _, _, err := f.source.Generate(e.Module); err != nil {
			t.Fatalf("annotating %s: %v", id, err)
		}
	}
	f.srv.Comparer.Index = match.NewCatalogIndex(f.ont, f.reg.Modules())
	SyncIndex(f.reg, f.srv.Comparer.Index)
	searchSync := &search.Syncer{Registry: f.reg, Store: f.st, Index: search.New(f.ont)}
	searchSync.IndexAll()
	searchSync.HookAvailability()
	f.srv.SearchIndex = searchSync.Index

	log, err := lifecycle.OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	queue, err := lifecycle.OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { queue.Close() })
	clock := resilient.NewFakeClock()
	mgr, err := lifecycle.NewManager(lifecycle.Config{
		Interval: time.Minute, Jitter: -1,
		QuarantineAfter: 2, RetireAfter: 2, Probation: 2,
		Policy: resilient.Policy{MaxAttempts: 1},
	}, lifecycle.Deps{
		Registry: f.reg,
		Examples: f.st,
		Log:      log,
		Queue:    queue,
		Planner:  &lifecycle.Planner{Comparer: f.srv.Comparer, Store: f.st, Registry: f.reg},
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Track("alpha", "beta", "gamma")
	f.srv.Lifecycle = mgr
	// The route table is snapshotted by Handler(), so the lifecycle routes
	// need a handler built after Lifecycle was set.
	lts := httptest.NewServer(f.srv.Handler())
	t.Cleanup(lts.Close)
	return &lifecycleFixture{fixture: f, clock: clock, mgr: mgr, lts: lts}
}

// decay rebinds a module to a format-mutating executor.
func (f *lifecycleFixture) decay(t *testing.T, id string) {
	t.Helper()
	e, ok := f.reg.Get(id)
	if !ok {
		t.Fatalf("no module %s", id)
	}
	inner := e.Module.Executor()
	e.Module.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		outs, err := inner.Invoke(in)
		if err != nil {
			return nil, err
		}
		for name, v := range outs {
			if s, ok := v.(typesys.StringValue); ok {
				outs[name] = typesys.Str("LEGACY-FORMAT\n" + string(s))
			}
		}
		return outs, nil
	}))
}

// sweep advances the fake clock and runs every due probe.
func (f *lifecycleFixture) sweep(t *testing.T, d time.Duration) {
	t.Helper()
	f.clock.Advance(d)
	if _, err := f.mgr.RunDue(context.Background()); err != nil {
		t.Fatalf("RunDue: %v", err)
	}
}

func TestLifecycleStatusAndEventsEndpoints(t *testing.T) {
	f := newLifecycleFixture(t)
	f.sweep(t, time.Minute) // all healthy
	f.decay(t, "beta")
	f.sweep(t, time.Minute) // beta -> suspect
	f.sweep(t, time.Minute) // beta -> quarantined

	var lc struct {
		Modules []struct {
			Module string `json:"module"`
			State  string `json:"state"`
		} `json:"modules"`
		Counts  map[string]int `json:"counts"`
		Events  uint64         `json:"events"`
		Pending int            `json:"pending_repairs"`
	}
	if resp := getJSON(t, f.lts.URL+"/lifecycle", &lc); resp.StatusCode != http.StatusOK {
		t.Fatalf("lifecycle status %d", resp.StatusCode)
	}
	if len(lc.Modules) != 3 || lc.Modules[1].Module != "beta" || lc.Modules[1].State != "quarantined" {
		t.Fatalf("lifecycle modules = %+v", lc.Modules)
	}
	if lc.Counts["healthy"] != 2 || lc.Counts["quarantined"] != 1 || lc.Events != 2 {
		t.Fatalf("lifecycle summary = %+v", lc)
	}

	var ev struct {
		Events []struct {
			Seq    uint64 `json:"seq"`
			Module string `json:"module"`
			From   string `json:"from"`
			To     string `json:"to"`
			Probe  string `json:"probe"`
		} `json:"events"`
		Cursor uint64 `json:"cursor"`
		Total  uint64 `json:"total"`
	}
	resp := getJSON(t, f.lts.URL+"/events", &ev)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"lc-2"` {
		t.Fatalf("events status %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if len(ev.Events) != 2 || ev.Cursor != 2 || ev.Total != 2 {
		t.Fatalf("events page = %+v", ev)
	}
	if ev.Events[0].Seq != 1 || ev.Events[0].To != "suspect" || ev.Events[1].To != "quarantined" ||
		ev.Events[0].Probe != "drifted" {
		t.Fatalf("event stream = %+v", ev.Events)
	}

	// Cursor paging: resume past the first event.
	resp = getJSON(t, f.lts.URL+"/events?cursor=1", &ev)
	if len(ev.Events) != 1 || ev.Events[0].Seq != 2 || ev.Cursor != 2 {
		t.Fatalf("events?cursor=1 = %+v", ev)
	}
	// Conditional revalidation: the ETag answers 304 with no body work.
	req, _ := http.NewRequest(http.MethodGet, f.lts.URL+"/events", nil)
	req.Header.Set("If-None-Match", `"lc-2"`)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("events revalidation status %d, want 304", r2.StatusCode)
	}
	if resp := getJSON(t, f.lts.URL+"/events?cursor=oops", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status %d", resp.StatusCode)
	}
}

func TestWatchLongPoll(t *testing.T) {
	f := newLifecycleFixture(t)
	f.decay(t, "beta")
	f.sweep(t, time.Minute) // one event: beta healthy -> suspect

	// A stale cursor answers immediately with everything after it.
	var ev struct {
		Events []json.RawMessage `json:"events"`
		Cursor uint64            `json:"cursor"`
	}
	resp := getJSON(t, f.lts.URL+"/watch?cursor=0", &ev)
	if resp.StatusCode != http.StatusOK || len(ev.Events) != 1 || ev.Cursor != 1 {
		t.Fatalf("watch at stale cursor = %d, %+v", resp.StatusCode, ev)
	}
	if resp.Header.Get("ETag") != `"lc-1"` {
		t.Fatalf("watch ETag %q", resp.Header.Get("ETag"))
	}

	// At the head with a tiny window: 304, same cursor in the ETag.
	resp = getJSON(t, f.lts.URL+"/watch?cursor=1&wait=1ms", nil)
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != `"lc-1"` {
		t.Fatalf("watch timeout = %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}

	// A blocked watcher wakes as soon as the next transition lands. The
	// cursor rides the If-None-Match header, as a re-polling client would
	// send it.
	type watchResult struct {
		status int
		events int
	}
	got := make(chan watchResult, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, f.lts.URL+"/watch", nil)
		req.Header.Set("If-None-Match", `"lc-1"`)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- watchResult{status: -1}
			return
		}
		defer resp.Body.Close()
		var ev struct {
			Events []json.RawMessage `json:"events"`
		}
		json.NewDecoder(resp.Body).Decode(&ev)
		got <- watchResult{status: resp.StatusCode, events: len(ev.Events)}
	}()
	time.Sleep(50 * time.Millisecond) // let the watcher block
	f.sweep(t, time.Minute)           // beta -> quarantined
	select {
	case res := <-got:
		if res.status != http.StatusOK || res.events != 1 {
			t.Fatalf("woken watcher = %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke after the transition")
	}
}

func TestRepairsEndpointsAndDecision(t *testing.T) {
	f := newLifecycleFixture(t)
	f.decay(t, "beta")
	for i := 0; i < 4; i++ {
		f.sweep(t, time.Minute) // suspect, quarantined, streak, retired
	}
	if st, _ := f.mgr.StateOf("beta"); st != lifecycle.StateRetired {
		t.Fatalf("beta state = %v, want retired", st)
	}

	var rl struct {
		Proposals []lifecycle.Proposal `json:"proposals"`
		Count     int                  `json:"count"`
		Pending   int                  `json:"pending"`
	}
	if resp := getJSON(t, f.lts.URL+"/repairs", &rl); resp.StatusCode != http.StatusOK {
		t.Fatalf("repairs status %d", resp.StatusCode)
	}
	if rl.Count != 1 || rl.Pending != 1 || rl.Proposals[0].Module != "beta" {
		t.Fatalf("repairs = %+v", rl)
	}
	// Retiring beta must propose alpha, its behavioural equivalent.
	p := rl.Proposals[0]
	if len(p.Substitutes) == 0 || p.Substitutes[0].ModuleID != "alpha" || p.Substitutes[0].Verdict != "equivalent" {
		t.Fatalf("substitutes for retired beta = %+v", p)
	}
	if resp := getJSON(t, f.lts.URL+"/repairs?state=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus state filter status %d", resp.StatusCode)
	}

	post := func(id, action string) *http.Response {
		t.Helper()
		body := bytes.NewBufferString(fmt.Sprintf(`{"action":%q}`, action))
		resp, err := http.Post(f.lts.URL+"/repairs/"+id, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	var approved lifecycle.Proposal
	resp := post(p.ID, "approve")
	if err := json.NewDecoder(resp.Body).Decode(&approved); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || approved.State != lifecycle.ProposalApproved || approved.ResolvedAt == nil {
		t.Fatalf("approve = %d, %+v", resp.StatusCode, approved)
	}
	// The resolution timestamp comes from the manager's (fake) clock.
	if !approved.ResolvedAt.Equal(f.mgr.Now()) {
		t.Fatalf("resolved at %v, manager clock %v", approved.ResolvedAt, f.mgr.Now())
	}
	if resp := post(p.ID, "approve"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double approve status %d, want 409", resp.StatusCode)
	}
	if resp := post("rq-999999", "reject"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown proposal status %d, want 404", resp.StatusCode)
	}
	if resp := post(p.ID, "shrug"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad action status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, f.lts.URL+"/repairs?state=approved", &rl); resp.StatusCode != http.StatusOK || rl.Count != 1 || rl.Pending != 0 {
		t.Fatalf("approved filter = %+v", rl)
	}
}

// TestSubstitutesCacheInvalidatedByAvailabilityFlip is the stale-cache
// regression test: an availability flip that never touches stored
// annotations (here the health tracker auto-retiring a provider) must
// change the /substitutes cache key, so clients re-polling with the old
// ETag see the shrunken candidate set instead of a cached 304.
func TestSubstitutesCacheInvalidatedByAvailabilityFlip(t *testing.T) {
	f := newLifecycleFixture(t)
	url := f.lts.URL + "/modules/alpha/substitutes"

	type subsBody struct {
		Substitutes []struct {
			ID string `json:"id"`
		} `json:"substitutes"`
	}
	subIDs := func(body *subsBody) []string {
		var ids []string
		for _, s := range body.Substitutes {
			ids = append(ids, s.ID)
		}
		return ids
	}
	var body subsBody
	resp := getJSON(t, url, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("substitutes status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	ids := subIDs(&body)
	if len(ids) == 0 || ids[0] != "beta" {
		t.Fatalf("substitutes for alpha = %v, want beta ranked", ids)
	}

	// The provider health tracker retires beta: no store write, no
	// signature change — only availability flips.
	f.reg.SetFailureThreshold(1)
	if retired := f.reg.RecordFailure("beta", errors.New("connection refused")); !retired {
		t.Fatal("RecordFailure did not auto-retire beta")
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusNotModified {
		t.Fatal("stale ETag still validates after beta went unavailable")
	}
	body.Substitutes = nil
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	for _, id := range subIDs(&body) {
		if id == "beta" {
			t.Fatal("retired module still ranked as a substitute")
		}
	}
	if resp2.Header.Get("ETag") == etag {
		t.Fatal("availability flip did not change the substitutes ETag")
	}

	// Recovery flips it back, through the same watcher.
	f.reg.RecordSuccess("beta")
	body.Substitutes = nil
	getJSON(t, url, &body)
	if ids := subIDs(&body); len(ids) == 0 || ids[0] != "beta" {
		t.Fatalf("substitutes after recovery = %v, want beta back", ids)
	}
}

// TestLifecycleFlipBumpsEachViewOnce walks beta through healthy →
// suspect → quarantined → probation → healthy. Only the two transitions
// that flip availability may touch the derived views and the registry
// generation that keys the planner's view, each exactly once, and a
// /search cursor minted before the walk outlives the transitions that
// flip nothing.
func TestLifecycleFlipBumpsEachViewOnce(t *testing.T) {
	f := newLifecycleFixture(t)
	f.sweep(t, time.Minute) // all healthy
	e, _ := f.reg.Get("beta")
	original := e.Module.Executor()

	var page searchBody
	if resp := getJSON(t, f.lts.URL+"/search?q=module&limit=1", &page); resp.StatusCode != http.StatusOK || page.NextCursor == "" {
		t.Fatalf("search page 1: status %d cursor %q", resp.StatusCode, page.NextCursor)
	}
	matchGen, searchGen, regGen := f.srv.Comparer.Index.Generation(), f.srv.SearchIndex.Generation(), f.reg.Generation()
	step := func(want lifecycle.State, bumps uint64) {
		t.Helper()
		f.sweep(t, time.Minute)
		if got, _ := f.mgr.StateOf("beta"); got != want {
			t.Fatalf("beta state = %v, want %v", got, want)
		}
		if d := f.srv.Comparer.Index.Generation() - matchGen; d != bumps {
			t.Errorf("%v moved the catalog index generation by %d, want %d", want, d, bumps)
		}
		if d := f.srv.SearchIndex.Generation() - searchGen; d != bumps {
			t.Errorf("%v moved the search index generation by %d, want %d", want, d, bumps)
		}
		if d := f.reg.Generation() - regGen; d != bumps {
			t.Errorf("%v moved the registry generation by %d, want %d", want, d, bumps)
		}
		matchGen, searchGen, regGen = f.srv.Comparer.Index.Generation(), f.srv.SearchIndex.Generation(), f.reg.Generation()
	}

	f.decay(t, "beta")
	step(lifecycle.StateSuspect, 0)
	if resp := getJSON(t, f.lts.URL+"/search?q=module&limit=1&cursor="+page.NextCursor, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cursor minted before the suspect transition answered %d after it", resp.StatusCode)
	}
	step(lifecycle.StateQuarantined, 1)
	e.Module.Bind(original)
	step(lifecycle.StateProbation, 0)
	step(lifecycle.StateHealthy, 1)
}

// TestServePreStopBeforeStoreClose pins the shutdown order: every
// preStop hook (probe workers, lifecycle journals) runs after the HTTP
// drain but strictly before the store is flushed and closed, so a hook
// can still persist through the store and nothing it writes is lost.
func TestServePreStopBeforeStoreClose(t *testing.T) {
	dir := t.TempDir()
	f := newFixture(t, dir)

	var order []string
	probeSet := dataexample.Set{{
		Inputs:  map[string]typesys.Value{"seq": typesys.Str("ACGT")},
		Outputs: map[string]typesys.Value{"acc": typesys.Str("X:ACGT")},
	}}
	hook1 := func() error {
		order = append(order, "stop-probes")
		// The store must still be writable: Serve closes it after us.
		if _, _, err := f.st.Put("prestop-probe", probeSet); err != nil {
			return fmt.Errorf("store already closed during preStop: %w", err)
		}
		return nil
	}
	hook2 := func() error {
		order = append(order, "flush-journals")
		return nil
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, &http.Server{Handler: f.srv.Handler()}, ln, time.Second, f.st, hook1, hook2)
	}()
	// Make sure the server is actually up before shutting it down.
	if resp := getJSON(t, "http://"+ln.Addr().String()+"/catalog", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("catalog status %d", resp.StatusCode)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	if len(order) != 2 || order[0] != "stop-probes" || order[1] != "flush-journals" {
		t.Fatalf("preStop order = %v", order)
	}

	// What the hook wrote reached the WAL before the store closed.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, ok := st2.Get("prestop-probe"); !ok {
		t.Fatal("preStop write lost: store closed before the hook ran")
	}

	// A hook error surfaces from Serve without skipping the store close.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	served2 := make(chan error, 1)
	go func() {
		served2 <- Serve(ctx2, &http.Server{Handler: http.NewServeMux()}, ln2, time.Second, st2,
			func() error { return errors.New("journal flush failed") })
	}()
	cancel2()
	if err := <-served2; err == nil || err.Error() != "journal flush failed" {
		t.Fatalf("Serve swallowed the preStop error: %v", err)
	}
}
