package transport

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/typesys"
)

// ModuleOf names the module a wire-format request targets: the {id} of a
// REST path ".../modules/{id}" or ".../modules/{id}/invoke", or else the
// SOAP 1.1 SOAPAction header, which SOAPExecutor sets to the module ID.
// It returns "" for anything else.
func ModuleOf(r *http.Request) string {
	if _, rest, ok := strings.Cut(r.URL.Path, "/modules/"); ok {
		if id := strings.TrimSuffix(rest, "/invoke"); !strings.Contains(id, "/") {
			return id
		}
		return ""
	}
	return strings.Trim(r.Header.Get("SOAPAction"), `"`)
}

// serveInvoke is the server half of a remote invocation, for either wire
// format: read the capped body, decode the call, look the module up,
// invoke it and answer with its outputs. An execution error (the module
// rejected this input, or its executor panicked) answers 422; a call that is not well formed, or
// that the module refuses before running, answers 400; an unknown or
// retired module answers 404.
func serveInvoke(reg *registry.Registry, c codec, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fail := func(status int, msg string) { reply(w, c, status, c.encodeFault(status, msg)) }
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxResponseBody))
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	id, inputs, err := c.decodeRequest(r, body)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	m, available, ok := reg.Lookup(id)
	if !ok || !available {
		fail(http.StatusNotFound, "unknown module "+id)
		return
	}
	outs, err := invokeRecovered(m, inputs)
	if err != nil {
		status := http.StatusBadRequest
		if module.IsExecutionError(err) {
			status = http.StatusUnprocessableEntity
		}
		fail(status, err.Error())
		return
	}
	data, err := c.encodeResponse(m.ID, outs)
	if err != nil {
		fail(http.StatusInternalServerError, err.Error())
		return
	}
	reply(w, c, http.StatusOK, data)
}

// invokeRecovered invokes m, turning a panic in its executor into an
// execution error: the module terminated abnormally on this input. Left
// to net/http, the panic would drop the connection, and the caller would
// see a transient connection fault and retry it.
func invokeRecovered(m *module.Module, inputs map[string]typesys.Value) (outs map[string]typesys.Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			outs, err = nil, &module.ExecutionError{ModuleID: m.ID, Err: fmt.Errorf("panic: %v", p)}
		}
	}()
	return m.Invoke(inputs)
}

// reply writes one body in the codec's media type.
func reply(w http.ResponseWriter, c codec, status int, body []byte) {
	w.Header().Set("Content-Type", c.contentType())
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
