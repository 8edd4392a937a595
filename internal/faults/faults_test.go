package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/transport"
	"dexa/internal/typesys"
)

func echoExec() module.Executor {
	return module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": in["seq"]}, nil
	})
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	plan := Plan{Default: Uniform(0.5)}
	draw := func(seed int64) []Fault {
		inj := NewInjector(seed, plan)
		out := make([]Fault, 200)
		for i := range out {
			out[i] = inj.Decide("m")
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 200-draw fault stream")
	}
}

func TestInjectorRespectsRates(t *testing.T) {
	inj := NewInjector(7, Plan{Default: Uniform(0.4)})
	n := 5000
	for i := 0; i < n; i++ {
		inj.Decide("m")
	}
	got := float64(inj.Injected()) / float64(n)
	if got < 0.35 || got > 0.45 {
		t.Fatalf("injected fraction = %.3f, want ≈0.4", got)
	}
}

func TestInjectorFlapWindows(t *testing.T) {
	inj := NewInjector(1, Plan{Default: Profile{FlapEvery: 3, FlapFor: 2}})
	want := []Fault{FaultNone, FaultNone, FaultNone, FaultUnavailable, FaultUnavailable,
		FaultNone, FaultNone, FaultNone, FaultUnavailable, FaultUnavailable}
	for i, w := range want {
		if got := inj.Decide("m"); got != w {
			t.Fatalf("request %d: fault = %v, want %v", i, got, w)
		}
	}
	// Flap counters are per module: a different module starts fresh.
	if got := inj.Decide("other"); got != FaultNone {
		t.Fatalf("other module first request = %v, want none", got)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := (Profile{ConnReset: 0.6, Garbage: 0.6}).Validate(); err == nil {
		t.Fatal("over-unity profile accepted")
	}
	if err := (Profile{ConnReset: -0.1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := Uniform(0.25).Validate(); err != nil {
		t.Fatalf("Uniform(0.25) invalid: %v", err)
	}
}

func TestExecutorWrapperClassifiesFaults(t *testing.T) {
	// Force each fault deterministically with single-outcome profiles.
	cases := []struct {
		profile Profile
		kind    module.FaultKind
	}{
		{Profile{ConnReset: 1}, module.FaultConnection},
		{Profile{Throttle: 1}, module.FaultThrottled},
		{Profile{Unavailable: 1}, module.FaultUnavailable},
		{Profile{Truncate: 1}, module.FaultMalformed},
		{Profile{Garbage: 1}, module.FaultMalformed},
	}
	for _, tc := range cases {
		inj := NewInjector(1, Plan{Default: tc.profile})
		ex := Wrap("m", echoExec(), inj)
		_, err := ex.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")})
		if !module.IsTransient(err) {
			t.Fatalf("profile %+v: err = %v, want transient", tc.profile, err)
		}
		if kind, _ := module.FaultKindOf(err); kind != tc.kind {
			t.Fatalf("profile %+v: kind = %v, want %v", tc.profile, kind, tc.kind)
		}
	}
	// No faults: the call passes through.
	inj := NewInjector(1, Plan{})
	outs, err := Wrap("m", echoExec(), inj).Invoke(map[string]typesys.Value{"seq": typesys.Str("x")})
	if err != nil || string(outs["out"].(typesys.StringValue)) != "x" {
		t.Fatalf("clean profile: outs=%v err=%v", outs, err)
	}
}

func TestExecutorWrapperLatencyUsesInjectedSleep(t *testing.T) {
	inj := NewInjector(1, Plan{Default: Profile{Latency: 1, LatencyAmount: time.Hour}})
	var slept time.Duration
	inj.SleepFn = func(d time.Duration) { slept += d }
	if _, err := Wrap("m", echoExec(), inj).Invoke(map[string]typesys.Value{"seq": typesys.Str("x")}); err != nil {
		t.Fatalf("latency fault should still answer: %v", err)
	}
	if slept != time.Hour {
		t.Fatalf("slept %v via injected sleeper, want 1h", slept)
	}
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"outputs":{"out":{"kind":"string","str":"hello"}}}`)
	})
}

func TestMiddlewareInjectsStatusFaults(t *testing.T) {
	for _, tc := range []struct {
		profile Profile
		status  int
	}{
		{Profile{Throttle: 1}, http.StatusTooManyRequests},
		{Profile{Unavailable: 1}, http.StatusServiceUnavailable},
	} {
		inj := NewInjector(1, Plan{Default: tc.profile})
		srv := httptest.NewServer(Middleware(okHandler(), inj))
		resp, err := http.Get(srv.URL + "/modules/m/invoke")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("profile %+v: status = %d, want %d", tc.profile, resp.StatusCode, tc.status)
		}
	}
}

func TestMiddlewareConnReset(t *testing.T) {
	inj := NewInjector(1, Plan{Default: Profile{ConnReset: 1}})
	srv := httptest.NewServer(Middleware(okHandler(), inj))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/modules/m/invoke")
	if err == nil {
		resp.Body.Close()
		t.Fatal("expected a transport error from the aborted connection")
	}
}

func TestMiddlewareTruncateAndGarbage(t *testing.T) {
	inj := NewInjector(1, Plan{Default: Profile{Truncate: 1}})
	srv := httptest.NewServer(Middleware(okHandler(), inj))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/modules/m/invoke")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	full := `{"outputs":{"out":{"kind":"string","str":"hello"}}}`
	if resp.StatusCode != http.StatusOK || len(body) != len(full)/2 {
		t.Fatalf("truncate: status %d body %d bytes, want 200 with %d bytes", resp.StatusCode, len(body), len(full)/2)
	}

	inj = NewInjector(1, Plan{Default: Profile{Garbage: 1}})
	srv2 := httptest.NewServer(Middleware(okHandler(), inj))
	defer srv2.Close()
	resp, err = http.Get(srv2.URL + "/modules/m/invoke")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), "outputs") {
		t.Fatalf("garbage: status %d body %q, want undecodable 200", resp.StatusCode, body)
	}
}

func TestRoundTripperFaults(t *testing.T) {
	srv := httptest.NewServer(okHandler())
	defer srv.Close()

	inj := NewInjector(1, Plan{Default: Profile{ConnReset: 1}})
	client := &http.Client{Transport: &RoundTripper{Inj: inj}}
	if _, err := client.Get(srv.URL + "/modules/m/invoke"); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("err = %v, want injected reset", err)
	}

	inj = NewInjector(1, Plan{Default: Profile{Throttle: 1}})
	client = &http.Client{Transport: &RoundTripper{Inj: inj}}
	resp, err := client.Get(srv.URL + "/modules/m/invoke")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (synthesized without network)", resp.StatusCode)
	}

	inj = NewInjector(1, Plan{Default: Profile{Truncate: 1}})
	client = &http.Client{Transport: &RoundTripper{Inj: inj}}
	resp, err = client.Get(srv.URL + "/modules/m/invoke")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	full := `{"outputs":{"out":{"kind":"string","str":"hello"}}}`
	if len(body) != len(full)/2 {
		t.Fatalf("truncated body = %d bytes, want %d", len(body), len(full)/2)
	}
}

// TestMiddlewareChargesSOAPCallsPerModule: a SOAP call is charged to the
// module its SOAPAction header names, so two SOAP modules flap in windows
// of their own rather than sharing one.
func TestMiddlewareChargesSOAPCallsPerModule(t *testing.T) {
	reg := registry.New()
	for _, id := range []string{"a", "b"} {
		m := &module.Module{ID: id, Name: id, Form: module.FormSOAP,
			Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType}},
			Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType}}}
		m.Bind(echoExec())
		reg.MustRegister(m)
	}
	inj := NewInjector(1, Plan{Default: Profile{FlapEvery: 1, FlapFor: 1}})
	srv := httptest.NewServer(Middleware(transport.SOAPHandler(reg), inj))
	defer srv.Close()
	for _, id := range []string{"a", "b"} {
		ex := &transport.SOAPExecutor{Endpoint: srv.URL, ModuleID: id}
		if _, err := ex.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")}); err != nil {
			t.Fatalf("first call to %s: %v", id, err)
		}
	}
}
