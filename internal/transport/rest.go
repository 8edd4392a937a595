package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// REST wire format:
//
//	POST {base}/modules/{id}/invoke
//	  request:  {"inputs": {"seq": <tagged value>}}
//	  response: {"outputs": {"acc": <tagged value>}}
//	  errors:   {"error": "...", "kind": "execution"|"validation"|"not-found"}
//	GET {base}/modules            -> ["id1", "id2", ...]
//	GET {base}/modules/{id}       -> signature JSON

type restInvokeRequest struct {
	Inputs map[string]json.RawMessage `json:"inputs"`
}

type restInvokeResponse struct {
	Outputs map[string]json.RawMessage `json:"outputs,omitempty"`
	Error   string                     `json:"error,omitempty"`
	Kind    string                     `json:"kind,omitempty"`
}

type restParam struct {
	Name     string `json:"name"`
	Struct   string `json:"struct"`
	Semantic string `json:"semantic,omitempty"`
	Optional bool   `json:"optional,omitempty"`
}

type restSignature struct {
	ID      string      `json:"id"`
	Name    string      `json:"name"`
	Inputs  []restParam `json:"inputs"`
	Outputs []restParam `json:"outputs"`
}

// RESTHandler serves the modules of a registry over the REST wire format.
// Unavailable modules answer 404, which models provider decay faithfully:
// a retired service endpoint simply disappears.
func RESTHandler(reg *registry.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/modules", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var ids []string
		for _, m := range reg.Available() {
			ids = append(ids, m.ID)
		}
		sort.Strings(ids)
		writeJSON(w, http.StatusOK, ids)
	})
	mux.HandleFunc("/modules/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/modules/")
		if id, ok := strings.CutSuffix(rest, "/invoke"); ok {
			if r.Method != http.MethodPost {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			handleRESTInvoke(reg, id, w, r)
			return
		}
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		m, available, ok := reg.Lookup(rest)
		if !ok || !available {
			writeJSON(w, http.StatusNotFound, restInvokeResponse{Error: "unknown module", Kind: "not-found"})
			return
		}
		writeJSON(w, http.StatusOK, signatureOf(m))
	})
	return mux
}

func signatureOf(m *module.Module) restSignature {
	sig := restSignature{ID: m.ID, Name: m.Name}
	for _, p := range m.Inputs {
		sig.Inputs = append(sig.Inputs, restParam{Name: p.Name, Struct: p.Struct.String(), Semantic: p.Semantic, Optional: p.Optional})
	}
	for _, p := range m.Outputs {
		sig.Outputs = append(sig.Outputs, restParam{Name: p.Name, Struct: p.Struct.String(), Semantic: p.Semantic})
	}
	return sig
}

func handleRESTInvoke(reg *registry.Registry, id string, w http.ResponseWriter, r *http.Request) {
	m, available, ok := reg.Lookup(id)
	if !ok || !available {
		writeJSON(w, http.StatusNotFound, restInvokeResponse{Error: "unknown module", Kind: "not-found"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, restInvokeResponse{Error: err.Error(), Kind: "validation"})
		return
	}
	var req restInvokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, restInvokeResponse{Error: err.Error(), Kind: "validation"})
		return
	}
	inputs := make(map[string]typesys.Value, len(req.Inputs))
	for name, raw := range req.Inputs {
		v, err := typesys.UnmarshalValue(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, restInvokeResponse{Error: fmt.Sprintf("input %s: %v", name, err), Kind: "validation"})
			return
		}
		inputs[name] = v
	}
	outs, err := m.Invoke(inputs)
	if err != nil {
		if module.IsExecutionError(err) {
			writeJSON(w, http.StatusUnprocessableEntity, restInvokeResponse{Error: err.Error(), Kind: "execution"})
		} else {
			writeJSON(w, http.StatusBadRequest, restInvokeResponse{Error: err.Error(), Kind: "validation"})
		}
		return
	}
	resp := restInvokeResponse{Outputs: map[string]json.RawMessage{}}
	for name, v := range outs {
		data, err := typesys.MarshalValue(v)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, restInvokeResponse{Error: err.Error(), Kind: "validation"})
			return
		}
		resp.Outputs[name] = data
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// RESTExecutor invokes a remote module over the REST wire format. It
// implements module.Executor and module.ContextExecutor, so a local
// module.Module proxy can be bound to it. Errors are classified: network
// faults, timeouts, throttling, 5xx answers, and garbled 200 bodies
// surface as *module.TransientError (retryable); wire-format error
// answers remain plain errors, which the module layer wraps as abnormal
// terminations.
type RESTExecutor struct {
	// BaseURL is the server root, e.g. "http://host:port".
	BaseURL string
	// ModuleID is the remote module identifier.
	ModuleID string
	// Client is the HTTP client to use; a shared client with
	// DefaultTimeout when nil. A client without a Timeout should only be
	// supplied together with per-call context deadlines.
	Client *http.Client
}

// Invoke performs the remote call with no caller-supplied deadline (the
// client timeout still applies).
func (e *RESTExecutor) Invoke(inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	return e.InvokeContext(context.Background(), inputs)
}

// InvokeContext performs the remote call, honouring ctx. When a
// telemetry tracer rides in ctx the round-trip is recorded as a
// "transport.rest" span; transient transport faults mark it failed.
func (e *RESTExecutor) InvokeContext(ctx context.Context, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	ctx, span := telemetry.StartSpan(ctx, "transport.rest")
	span.Annotate("module", e.ModuleID)
	outs, err := e.invokeContext(ctx, inputs)
	if module.IsTransient(err) {
		span.Fail(err)
	}
	span.End()
	return outs, err
}

func (e *RESTExecutor) invokeContext(ctx context.Context, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	req := restInvokeRequest{Inputs: map[string]json.RawMessage{}}
	for name, v := range inputs {
		data, err := typesys.MarshalValue(v)
		if err != nil {
			return nil, fmt.Errorf("transport: encoding input %s: %w", name, err)
		}
		req.Inputs[name] = data
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	url := strings.TrimSuffix(e.BaseURL, "/") + "/modules/" + e.ModuleID + "/invoke"
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := clientOrDefault(e.Client).Do(httpReq)
	if err != nil {
		return nil, classifyDialErr(e.ModuleID, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return nil, module.Transient(e.ModuleID, module.FaultConnection, fmt.Errorf("reading response: %w", err))
	}
	if len(body) > maxResponseBody {
		return nil, module.Transient(e.ModuleID, module.FaultMalformed, fmt.Errorf("response exceeds %d-byte limit", maxResponseBody))
	}
	// Status first: a proxy's 502 HTML page or a load balancer's plain-text
	// 429 must classify by status, not die in the JSON decoder.
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return nil, classifyStatus(e.ModuleID, resp.StatusCode, body)
		}
		var out restInvokeResponse
		if looksLikeWireFormat(body, "{") && json.Unmarshal(body, &out) == nil && out.Error != "" {
			return nil, fmt.Errorf("transport: remote %s: %s", out.Kind, out.Error)
		}
		return nil, classifyStatus(e.ModuleID, resp.StatusCode, body)
	}
	var out restInvokeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		// A 200 that does not decode is wire corruption (truncated or
		// garbled in flight) — transient, retryable.
		return nil, module.Transient(e.ModuleID, module.FaultMalformed,
			fmt.Errorf("decoding response: %w (body %s)", err, bodySnippet(body)))
	}
	if out.Error != "" {
		return nil, fmt.Errorf("transport: remote %s: %s", out.Kind, out.Error)
	}
	values := make(map[string]typesys.Value, len(out.Outputs))
	for name, raw := range out.Outputs {
		v, err := typesys.UnmarshalValue(raw)
		if err != nil {
			return nil, module.Transient(e.ModuleID, module.FaultMalformed,
				fmt.Errorf("decoding output %s: %w", name, err))
		}
		values[name] = v
	}
	return values, nil
}

// ListRemoteModules fetches the IDs of the modules available at a REST
// endpoint. A nil client falls back to the shared client with
// DefaultTimeout — never a deadline-free http.DefaultClient.
func ListRemoteModules(baseURL string, client *http.Client) ([]string, error) {
	resp, err := clientOrDefault(client).Get(strings.TrimSuffix(baseURL, "/") + "/modules")
	if err != nil {
		return nil, classifyDialErr("", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return nil, module.Transient("", module.FaultConnection, fmt.Errorf("reading module list: %w", err))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, classifyStatus("", resp.StatusCode, body)
	}
	var ids []string
	if err := json.Unmarshal(body, &ids); err != nil {
		return nil, module.Transient("", module.FaultMalformed, fmt.Errorf("decoding module list: %w", err))
	}
	return ids, nil
}
