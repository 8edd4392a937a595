package experiment

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/faults"
	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/resilient"
	"dexa/internal/transport"
	"dexa/internal/typesys"
)

// TestChaosResilientRecoversCompleteness is the end-to-end claim of the
// robustness subsystem: with a seeded fault profile injecting >=20%
// transient failures on the REST and SOAP transports, generation through
// the resilient executor covers the same partition classes as a
// fault-free run, while the naive executor demonstrably loses classes.
// Every sleep (backoff) runs on a fake clock.
func TestChaosResilientRecoversCompleteness(t *testing.T) {
	u := suite(t).U
	cfg := ChaosConfig{
		Seed:        20140324,
		Profile:     faults.Uniform(0.3),
		PerForm:     4,
		MaxAttempts: 6,
	}
	start := time.Now()
	out, err := RunChaosExperiment(u, cfg)
	if err != nil {
		t.Fatalf("RunChaosExperiment: %v", err)
	}
	if out.Modules != 8 {
		t.Fatalf("modules = %d, want 8 (4 REST + 4 SOAP)", out.Modules)
	}
	// The fault pressure must actually be there, on both sweeps.
	for _, sweep := range []struct {
		name             string
		injected, issued int
	}{
		{"naive", out.NaiveInjected, out.NaiveCalls},
		{"resilient", out.ResilientInjected, out.ResilientCalls},
	} {
		if sweep.issued == 0 {
			t.Fatalf("%s sweep issued no transport calls", sweep.name)
		}
		if frac := float64(sweep.injected) / float64(sweep.issued); frac < 0.20 {
			t.Fatalf("%s sweep fault share = %.2f, want >= 0.20", sweep.name, frac)
		}
	}
	if out.BaselineClasses == 0 {
		t.Fatal("baseline covered no partition classes")
	}
	// The naive stack demonstrably corrupts the annotation: it loses
	// partition classes under chaos.
	if out.NaiveLost == 0 {
		t.Fatalf("naive executors lost no classes under %.0f%% faults — chaos is not biting",
			100*cfg.Profile.TransientRate())
	}
	// The resilient stack recovers the fault-free completeness exactly.
	if out.ResilientLost != 0 {
		t.Fatalf("resilient stack lost %d of %d classes", out.ResilientLost, out.BaselineClasses)
	}
	if out.ResilientClasses != out.BaselineClasses {
		t.Fatalf("resilient classes = %d, baseline = %d", out.ResilientClasses, out.BaselineClasses)
	}
	if out.ResilientExamples != out.BaselineExamples {
		t.Fatalf("resilient examples = %d, baseline = %d", out.ResilientExamples, out.BaselineExamples)
	}
	if out.NaiveExamples >= out.BaselineExamples {
		t.Fatalf("naive examples = %d, want fewer than baseline %d", out.NaiveExamples, out.BaselineExamples)
	}
	if out.Retries == 0 || out.Recovered == 0 {
		t.Fatalf("resilient stack reports no work: retries=%d recovered=%d", out.Retries, out.Recovered)
	}
	// No real sleeps: even with hundreds of injected faults and jittered
	// backoff, the whole experiment finishes promptly.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("experiment took %v — backoff is sleeping on the real clock", elapsed)
	}
}

// TestChaosExperimentDeterministic re-runs the experiment with the same
// seed and expects identical outcomes.
func TestChaosExperimentDeterministic(t *testing.T) {
	u := suite(t).U
	cfg := ChaosConfig{Seed: 7, Profile: faults.Uniform(0.25), PerForm: 2, MaxAttempts: 6}
	a, err := RunChaosExperiment(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaosExperiment(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed, different outcomes:\n%+v\n%+v", a, b)
	}
}

// TestChaosBreakerLifecycleOverREST drives a circuit breaker end-to-end
// over the real REST transport with a fake clock: it opens after the
// configured failure threshold, fails fast while open, half-opens after
// the cool-down, and closes on a successful probe.
func TestChaosBreakerLifecycleOverREST(t *testing.T) {
	reg := registry.New()
	m := &module.Module{
		ID: "echo", Name: "Echo", Form: module.FormREST,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "Seq"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": in["seq"]}, nil
	}))
	reg.MustRegister(m)

	var failing atomic.Bool
	failing.Store(true)
	var served atomic.Int64
	inner := transport.RESTHandler(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if failing.Load() {
			http.Error(w, "upstream dead", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	clock := resilient.NewFakeClock()
	ex := resilient.Wrap("echo", &transport.RESTExecutor{BaseURL: srv.URL, ModuleID: "echo"},
		resilient.Options{
			Policy:  resilient.Policy{MaxAttempts: 1, Seed: 1},
			Breaker: resilient.BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second},
			Clock:   clock,
		})
	in := map[string]typesys.Value{"seq": typesys.Str("ACGT")}

	// Three transient failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := ex.Invoke(in); !module.IsTransient(err) {
			t.Fatalf("call %d: err = %v, want transient", i, err)
		}
	}
	if got := ex.Breaker().State(); got != resilient.BreakerOpen {
		t.Fatalf("breaker state = %v, want open after threshold", got)
	}

	// While open, calls fail fast without touching the server.
	before := served.Load()
	if _, err := ex.Invoke(in); err == nil || !module.IsTransient(err) {
		t.Fatalf("open-breaker call err = %v, want transient fail-fast", err)
	}
	if served.Load() != before {
		t.Fatal("open breaker still reached the server")
	}

	// Cool-down elapses on the fake clock: half-open.
	clock.Advance(10 * time.Second)
	if got := ex.Breaker().State(); got != resilient.BreakerHalfOpen {
		t.Fatalf("breaker state = %v, want half-open after cool-down", got)
	}

	// The provider heals; the half-open probe succeeds and closes the
	// breaker.
	failing.Store(false)
	outs, err := ex.Invoke(in)
	if err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if got := string(outs["out"].(typesys.StringValue)); got != "ACGT" {
		t.Fatalf("out = %q", got)
	}
	if got := ex.Breaker().State(); got != resilient.BreakerClosed {
		t.Fatalf("breaker state = %v, want closed after good probe", got)
	}
}

func TestRunChaosResultShape(t *testing.T) {
	r := suite(t).RunChaos()
	if r.ID != "chaos" {
		t.Fatalf("ID = %q", r.ID)
	}
	if got := measuredInt(t, r, "classes lost by resilient stack"); got != 0 {
		t.Fatalf("resilient lost %d classes", got)
	}
	if got := measuredInt(t, r, "classes lost by naive executors"); got == 0 {
		t.Fatal("naive sweep lost no classes")
	}
	share := rowByLabel(t, r, "injected transient fault share (naive sweep)").Measured
	if !strings.HasSuffix(share, "%") {
		t.Fatalf("fault share %q not a percentage", share)
	}
}
