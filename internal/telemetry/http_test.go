package telemetry

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func TestRouteMetricsAndRequestID(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(8)
	ins := NewHTTPInstrument(HTTPOptions{Registry: reg, Tracer: tr})

	var sawID string
	h := ins.Route("/things/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawID, _ = r.Context().Value(requestIDKey{}).(string)
		if SpanFrom(r.Context()) == nil {
			t.Error("no span in handler context")
		}
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte("made"))
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/things/42", nil))
	if rec.Code != http.StatusCreated {
		t.Fatalf("status = %d", rec.Code)
	}
	rid := rec.Header().Get(RequestIDHeader)
	if rid == "" || rid != sawID {
		t.Errorf("request ID header %q, handler saw %q", rid, sawID)
	}

	// Client-supplied IDs are echoed and threaded through.
	rec2 := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/things/43", nil)
	req.Header.Set(RequestIDHeader, "client-supplied-7")
	h.ServeHTTP(rec2, req)
	if got := rec2.Header().Get(RequestIDHeader); got != "client-supplied-7" {
		t.Errorf("echoed ID = %q", got)
	}
	if sawID != "client-supplied-7" {
		t.Errorf("handler saw %q", sawID)
	}

	// Hostile IDs (injection, oversize) are replaced.
	rec3 := httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/things/44", nil)
	req.Header.Set(RequestIDHeader, "bad\x7fid")
	h.ServeHTTP(rec3, req)
	if got := rec3.Header().Get(RequestIDHeader); got == "bad\x7fid" || got == "" {
		t.Errorf("hostile ID echoed: %q", got)
	}

	// Metrics landed under the route label.
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`dexa_http_requests_total{route="/things/{id}",method="POST",code="201"} 3`,
		`dexa_http_request_duration_seconds_count{route="/things/{id}"} 3`,
		`dexa_http_response_bytes_total{route="/things/{id}"} 12`,
		`dexa_http_in_flight_requests 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Each request produced one root trace named after the route.
	recent := tr.Recent()
	if len(recent) != 3 || recent[0].Name != "http POST /things/{id}" {
		t.Errorf("traces = %+v", recent)
	}
}

// TestRouteAccessLog: one structured line per request; with a tracer
// wired it also names the request's root span by the ID /debug/traces
// prints in "trace".
func TestRouteAccessLog(t *testing.T) {
	for _, tr := range []*Tracer{nil, NewTracer(8)} {
		var buf bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&buf, nil))
		ins := NewHTTPInstrument(HTTPOptions{Logger: logger, Tracer: tr})
		h := ins.Route("/ping", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("pong"))
		}))
		req := httptest.NewRequest("GET", "/ping", nil)
		req.Header.Set(RequestIDHeader, "rid-1")
		h.ServeHTTP(httptest.NewRecorder(), req)
		line := buf.String()
		want := []string{"method=GET", "route=/ping", "status=200", "requestId=rid-1", "bytes=4"}
		if tr != nil {
			want = append(want, "trace="+strconv.FormatUint(tr.Recent()[0].Trace, 10)+"\n")
		} else if strings.Contains(line, "trace=") {
			t.Errorf("access log names a trace with no tracer wired: %s", line)
		}
		for _, w := range want {
			if !strings.Contains(line, w) {
				t.Errorf("access log missing %q: %s", w, line)
			}
		}
	}
}

func TestRouteWithoutTelemetryStillWorks(t *testing.T) {
	ins := NewHTTPInstrument(HTTPOptions{})
	h := ins.Route("/bare", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/bare", nil))
	if rec.Code != 200 || rec.Body.String() != "ok" {
		t.Fatalf("bare route broken: %d %q", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Error("request ID missing without telemetry")
	}
}

func TestRequestIDsUnique(t *testing.T) {
	ins := NewHTTPInstrument(HTTPOptions{})
	seen := map[string]bool{}
	h := ins.Route("/u", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for i := 0; i < 100; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/u", nil))
		id := rec.Header().Get(RequestIDHeader)
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestUsableRequestID(t *testing.T) {
	cases := map[string]bool{
		"":                            false,
		"ok-123":                      true,
		"with space":                  false,
		"tab\there":                   false,
		"newline\n":                   false,
		strings.Repeat("x", 128):      true,
		strings.Repeat("x", 129):      false,
		"non-ascii-\xc3\xa9":          false,
		"control-\x01":                false,
		"UUID-550e8400-e29b-41d4-a71": true,
	}
	for id, want := range cases {
		if got := usableRequestID(id); got != want {
			t.Errorf("usableRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}
