package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"dexa/internal/module"
	"dexa/internal/registry"
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
	Inputs restValues `json:"inputs"`
}

type restInvokeResponse struct {
	Outputs restValues `json:"outputs,omitempty"`
	Error   string     `json:"error,omitempty"`
	Kind    string     `json:"kind,omitempty"`
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

// restValues is named values on the REST wire: one JSON object of
// tagged values.
type restValues map[string]typesys.Value

func (vs restValues) MarshalJSON() ([]byte, error) {
	raw := make(map[string]json.RawMessage, len(vs))
	for name, v := range vs {
		data, err := typesys.MarshalValue(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		raw[name] = data
	}
	return json.Marshal(raw)
}

func (vs *restValues) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*vs = make(restValues, len(raw))
	for name, data := range raw {
		v, err := typesys.UnmarshalValue(data)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		(*vs)[name] = v
	}
	return nil
}

// restFaultKinds spells, by HTTP status, the kind of a REST error body.
var restFaultKinds = map[int]string{400: "validation", 404: "not-found", 422: "execution", 500: "validation"}

// jsonLine renders v as one JSON document and a newline.
func jsonLine(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(data, '\n'), err
}

type restCodec struct{}

func (restCodec) spanName() string    { return "transport.rest" }
func (restCodec) contentType() string { return "application/json" }

func (restCodec) encodeRequest(_ string, inputs map[string]typesys.Value, _ http.Header) ([]byte, error) {
	return json.Marshal(restInvokeRequest{Inputs: inputs})
}

func (restCodec) decodeRequest(r *http.Request, body []byte) (string, map[string]typesys.Value, error) {
	var req restInvokeRequest
	err := json.Unmarshal(body, &req)
	return r.PathValue("id"), req.Inputs, err
}

func (restCodec) encodeResponse(_ string, outs map[string]typesys.Value) ([]byte, error) {
	return jsonLine(restInvokeResponse{Outputs: outs})
}

func (restCodec) decodeResponse(body []byte) (map[string]typesys.Value, *remoteFault, error) {
	var resp restInvokeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, err
	}
	if resp.Error != "" {
		return nil, &remoteFault{kind: resp.Kind, msg: resp.Error}, nil
	}
	return resp.Outputs, nil, nil
}

func (restCodec) encodeFault(status int, msg string) []byte {
	data, _ := jsonLine(restInvokeResponse{Error: msg, Kind: restFaultKinds[status]})
	return data
}

// RESTHandler serves the modules of a registry over the REST wire format.
// Unavailable modules answer 404, which models provider decay faithfully:
// a retired service endpoint simply disappears.
func RESTHandler(reg *registry.Registry) http.Handler {
	var c restCodec
	mux := http.NewServeMux()
	mux.HandleFunc("GET /modules", func(w http.ResponseWriter, r *http.Request) {
		var ids []string
		for _, m := range reg.Available() {
			ids = append(ids, m.ID)
		}
		sort.Strings(ids)
		data, _ := jsonLine(ids)
		reply(w, c, http.StatusOK, data)
	})
	mux.HandleFunc("GET /modules/{id}", func(w http.ResponseWriter, r *http.Request) {
		m, available, ok := reg.Lookup(r.PathValue("id"))
		if !ok || !available {
			reply(w, c, http.StatusNotFound, c.encodeFault(http.StatusNotFound, "unknown module"))
			return
		}
		data, _ := jsonLine(signatureOf(m))
		reply(w, c, http.StatusOK, data)
	})
	mux.HandleFunc("POST /modules/{id}/invoke", func(w http.ResponseWriter, r *http.Request) {
		serveInvoke(reg, c, w, r)
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

// RESTExecutor invokes a remote module over the REST wire format. It
// implements module.Executor and module.ContextExecutor, so a local
// module.Module proxy can be bound to it. Errors are classified: network
// faults, timeouts, throttling, 5xx answers, and garbled or empty 200
// bodies surface as *module.TransientError (retryable); wire-format error
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
	url := strings.TrimSuffix(e.BaseURL, "/") + "/modules/" + e.ModuleID + "/invoke"
	return roundTrip(ctx, restCodec{}, e.Client, url, e.ModuleID, inputs)
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
	body, err := readBody("", resp)
	if err != nil {
		return nil, err
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
