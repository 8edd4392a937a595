package transport

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/typesys"
)

// fuzzRegistry serves one module, reverse, whose executor accepts every
// input that conforms to its signature.
func fuzzRegistry() *registry.Registry {
	reg := registry.New()
	m := &module.Module{
		ID: "reverse", Name: "Reverse", Form: module.FormREST,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": in["seq"]}, nil
	}))
	reg.MustRegister(m)
	return reg
}

// checkAnswer holds a response body to the classification property: at
// 200 it yields outputs, a remote fault or a malformed transient; at a
// 4xx status a remote fault or a hard status error; nothing else, and
// nothing panics.
func checkAnswer(t *testing.T, c codec, body []byte) {
	for _, status := range []int{http.StatusOK, http.StatusBadRequest} {
		outs, err := classifyAnswer(c, "reverse", status, body)
		var fault *remoteFault
		switch {
		case err == nil:
			if status != http.StatusOK || len(outs) == 0 {
				t.Fatalf("status %d body %q: %d outputs and no error", status, body, len(outs))
			}
		case module.IsTransient(err):
			if kind, _ := module.FaultKindOf(err); kind != module.FaultMalformed || status != http.StatusOK {
				t.Fatalf("status %d body %q: transient %v, want malformed at 200 only", status, body, err)
			}
		case status == http.StatusOK && !errors.As(err, &fault):
			t.Fatalf("status 200 body %q: plain error %v is not a remote fault", body, err)
		}
	}
}

// checkRequest holds a request body to the handler property: the module
// is invoked (200 with its outputs), or the call is refused in the wire
// format with a validation fault (400), or — when a SOAP envelope names
// another module — a not-found fault (404).
func checkRequest(t *testing.T, h http.Handler, c codec, kinds map[int]string, target string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	outs, fault, err := c.decodeResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("body %q: status %d answer %q is not the wire format: %v", body, rec.Code, rec.Body, err)
	}
	switch rec.Code {
	case http.StatusOK:
		if fault != nil || len(outs) != 1 {
			t.Fatalf("body %q: 200 with fault %v and %d outputs", body, fault, len(outs))
		}
	case http.StatusBadRequest, http.StatusNotFound:
		if fault == nil || fault.kind != kinds[rec.Code] {
			t.Fatalf("body %q: status %d fault %v, want kind %s", body, rec.Code, fault, kinds[rec.Code])
		}
	default:
		t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
	}
}

// FuzzRESTWire feeds one body to both REST decoders: the executor's
// answer classification and the handler's request decode.
func FuzzRESTWire(f *testing.F) {
	for _, seed := range []string{
		`{"inputs":{"seq":{"kind":"string","str":"ACGT"}}}`,
		`{"inputs":{"seq":{"kind":"str`,
		`{"inputs":{"seq":{"kind":"frobnicate","str":"ACGT"}}}`,
		`{"outputs":{"out":{"kind":"string","str":"TGCA"}}}`,
		`{"outputs":{"out":{"kind":"str`,
		`{"error":"module reverse: rejected input","kind":"execution"}`,
		"{}",
		"\x1f\x8b\x00garbage\xffnot-a-wire-format\x00\x02",
	} {
		f.Add([]byte(seed))
	}
	h := RESTHandler(fuzzRegistry())
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, restCodec{}, body)
		checkRequest(t, h, restCodec{}, restFaultKinds, "/modules/reverse/invoke", body)
	})
}

// FuzzSOAPWire feeds one body to both SOAP decoders: the executor's
// answer classification and the handler's request decode.
func FuzzSOAPWire(f *testing.F) {
	for _, seed := range []string{
		`<Envelope><Body><InvokeRequest module="reverse"><Input name="seq"><Value kind="string">ACGT</Value></Input></InvokeRequest></Body></Envelope>`,
		"<Envelope><Body><InvokeRequest></Body></Envelope>",
		"<Envelope><Body>",
		"not xml at all",
		`<Envelope><Body><InvokeResponse module="reverse"><Output name="out"><Value kind="string">TGCA</Value></Output></InvokeResponse></Body></Envelope>`,
		"<Envelope><Body><InvokeResp",
		`<Envelope><Body><Fault><Code>Execution</Code><Message>rejected input</Message></Fault></Body></Envelope>`,
		"\x1f\x8b\x00garbage\xffnot-a-wire-format\x00\x02",
	} {
		f.Add([]byte(seed))
	}
	h := SOAPHandler(fuzzRegistry())
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, soapCodec{}, body)
		checkRequest(t, h, soapCodec{}, soapFaultCodes, "/soap", body)
	})
}
