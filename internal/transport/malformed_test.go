package transport

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dexa/internal/module"
	"dexa/internal/typesys"
)

// postREST posts a raw body at the reverse module's invoke endpoint and
// decodes the wire-format answer.
func postREST(t *testing.T, srv *httptest.Server, body io.Reader) (int, restInvokeResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/modules/reverse/invoke", "application/json", body)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out restInvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestRESTHandlerTruncatedJSONIsValidation(t *testing.T) {
	_, restSrv, _ := newServerFixture(t)
	status, out := postREST(t, restSrv, strings.NewReader(`{"inputs":{"seq":{"kind":"str`))
	if status != http.StatusBadRequest || out.Kind != "validation" {
		t.Fatalf("status %d kind %q, want 400 validation", status, out.Kind)
	}
}

func TestRESTHandlerOversizedBodyIsValidation(t *testing.T) {
	_, restSrv, _ := newServerFixture(t)
	// A >16 MiB body must be cut off by the handler's MaxBytesReader and
	// answered as a validation error, not crash or hang.
	huge := bytes.Repeat([]byte("x"), (16<<20)+64)
	status, out := postREST(t, restSrv, bytes.NewReader(huge))
	if status != http.StatusBadRequest || out.Kind != "validation" {
		t.Fatalf("status %d kind %q, want 400 validation", status, out.Kind)
	}
}

func TestRESTHandlerUnknownValueTagIsValidation(t *testing.T) {
	_, restSrv, _ := newServerFixture(t)
	status, out := postREST(t, restSrv,
		strings.NewReader(`{"inputs":{"seq":{"kind":"frobnicate","str":"ACGT"}}}`))
	if status != http.StatusBadRequest || out.Kind != "validation" {
		t.Fatalf("status %d kind %q, want 400 validation", status, out.Kind)
	}
	if !strings.Contains(out.Error, "seq") {
		t.Fatalf("error %q does not name the offending input", out.Error)
	}
}

func TestSOAPHandlerMismatchedXMLIsValidationFault(t *testing.T) {
	_, _, soapSrv := newServerFixture(t)
	for _, body := range []string{
		"<Envelope><Body><InvokeRequest></Body></Envelope>", // mismatched tags
		"<Envelope><Body>", // truncated
		"not xml at all",
	} {
		resp, err := http.Post(soapSrv.URL, "text/xml", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var env soapEnvelope
		if err := xml.Unmarshal(data, &env); err != nil {
			t.Fatalf("body %q: undecodable fault answer: %v", body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Body.Fault == nil || env.Body.Fault.Code != "Validation" {
			t.Fatalf("body %q: status %d fault %+v, want 400 Validation", body, resp.StatusCode, env.Body.Fault)
		}
	}
}

// faultyServer answers every request with a fixed status and body —
// playing the part of a proxy or load balancer that does not speak the
// wire format.
func faultyServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(status)
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func seqInput() map[string]typesys.Value {
	return map[string]typesys.Value{"seq": typesys.Str("ACGT")}
}

func TestRESTExecutorChecksStatusBeforeDecoding(t *testing.T) {
	srv := faultyServer(t, http.StatusBadGateway, "<html><body><h1>502 Bad Gateway</h1></body></html>")
	ex := &RESTExecutor{BaseURL: srv.URL, ModuleID: "reverse"}
	_, err := ex.Invoke(seqInput())
	if err == nil {
		t.Fatal("expected an error")
	}
	// The old bug: the JSON decoder saw the HTML first and reported a
	// useless "decoding response" error. Now the status comes first and
	// the message carries status + snippet.
	if strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("err %q still reports a decoding failure for a non-200 answer", err)
	}
	if !module.IsTransient(err) {
		t.Fatalf("502 not classified transient: %v", err)
	}
	if kind, _ := module.FaultKindOf(err); kind != module.FaultUnavailable {
		t.Fatalf("kind = %v, want unavailable", kind)
	}
	if !strings.Contains(err.Error(), "502") || !strings.Contains(err.Error(), "Bad Gateway") {
		t.Fatalf("err %q lacks status and body snippet", err)
	}
}

func TestRESTExecutorClassifies429AsThrottled(t *testing.T) {
	srv := faultyServer(t, http.StatusTooManyRequests, "rate limit exceeded")
	ex := &RESTExecutor{BaseURL: srv.URL, ModuleID: "reverse"}
	_, err := ex.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultThrottled {
		t.Fatalf("err = %v, want throttled transient", err)
	}
}

func TestRESTExecutorPlain4xxIsHardErrorWithSnippet(t *testing.T) {
	srv := faultyServer(t, http.StatusForbidden, "access denied by gateway policy")
	ex := &RESTExecutor{BaseURL: srv.URL, ModuleID: "reverse"}
	_, err := ex.Invoke(seqInput())
	if err == nil || module.IsTransient(err) {
		t.Fatalf("err = %v, want non-transient hard error", err)
	}
	if !strings.Contains(err.Error(), "403") || !strings.Contains(err.Error(), "access denied") {
		t.Fatalf("err %q lacks status and snippet", err)
	}
}

func TestRESTExecutorGarbled200IsMalformedTransient(t *testing.T) {
	srv := faultyServer(t, http.StatusOK, `{"outputs":{"out":{"kind":"str`)
	ex := &RESTExecutor{BaseURL: srv.URL, ModuleID: "reverse"}
	_, err := ex.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultMalformed {
		t.Fatalf("err = %v, want malformed transient", err)
	}
}

// TestRESTExecutorEmpty200IsMalformedTransient: a 200 that decodes but
// carries neither outputs nor an error is no answer at all — every module
// declares an output — so it is retryable wire corruption, as the SOAP
// executor treats an envelope without a response.
func TestRESTExecutorEmpty200IsMalformedTransient(t *testing.T) {
	srv := faultyServer(t, http.StatusOK, "{}")
	ex := &RESTExecutor{BaseURL: srv.URL, ModuleID: "reverse"}
	_, err := ex.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultMalformed {
		t.Fatalf("err = %v, want malformed transient", err)
	}
}

func TestRESTExecutorConnectionRefusedIsTransient(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here any more
	ex := &RESTExecutor{BaseURL: url, ModuleID: "reverse"}
	_, err := ex.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultConnection {
		t.Fatalf("err = %v, want connection transient", err)
	}
}

func TestRESTExecutorTimeoutIsTransient(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer func() { close(block); srv.Close() }()
	ex := &RESTExecutor{BaseURL: srv.URL, ModuleID: "reverse",
		Client: &http.Client{Timeout: 20 * time.Millisecond}}
	_, err := ex.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultTimeout {
		t.Fatalf("err = %v, want timeout transient", err)
	}
}

func TestSOAPExecutorStatusAndGarbleClassification(t *testing.T) {
	srv := faultyServer(t, http.StatusServiceUnavailable, "<html>maintenance window</html>")
	ex := &SOAPExecutor{Endpoint: srv.URL, ModuleID: "picky"}
	_, err := ex.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultUnavailable {
		t.Fatalf("503: err = %v, want unavailable transient", err)
	}

	srv2 := faultyServer(t, http.StatusOK, "<Envelope><Body><InvokeResp") // truncated envelope
	ex2 := &SOAPExecutor{Endpoint: srv2.URL, ModuleID: "picky"}
	_, err = ex2.Invoke(seqInput())
	if kind, ok := module.FaultKindOf(err); !ok || kind != module.FaultMalformed {
		t.Fatalf("garbled 200: err = %v, want malformed transient", err)
	}
}

func TestSOAPExecutorFaultStaysHardError(t *testing.T) {
	_, _, soapSrv := newServerFixture(t)
	ex := &SOAPExecutor{Endpoint: soapSrv.URL, ModuleID: "picky"}
	// "x" is shorter than picky's minimum: the module rejects it — an
	// execution fault, which must stay non-transient so the generation
	// heuristic counts it as an abnormal termination.
	_, err := ex.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")})
	if err == nil || module.IsTransient(err) {
		t.Fatalf("err = %v, want non-transient remote execution fault", err)
	}
	if !strings.Contains(err.Error(), "Execution") {
		t.Fatalf("err %q does not carry the Execution fault code", err)
	}
}

func TestListRemoteModulesClassifiesFailures(t *testing.T) {
	srv := faultyServer(t, http.StatusBadGateway, "<html>502</html>")
	if _, err := ListRemoteModules(srv.URL, nil); !module.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	srv2 := faultyServer(t, http.StatusOK, "[truncated")
	if _, err := ListRemoteModules(srv2.URL, nil); !module.IsTransient(err) {
		t.Fatalf("err = %v, want malformed transient", err)
	}
}
