package transport

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// SOAP wire format: a single POST endpoint receiving an Envelope whose
// Body carries an InvokeRequest naming the module:
//
//	<Envelope><Body>
//	  <InvokeRequest module="getRecord">
//	    <Input name="acc"><Value kind="string">P12345</Value></Input>
//	  </InvokeRequest>
//	</Body></Envelope>
//
// Responses carry either an InvokeResponse with Output elements or a
// Fault with a Code ("Execution", "Validation", "NotFound") and Message.

type soapEnvelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Body    soapBody `xml:"Body"`
}

type soapBody struct {
	Request  *soapInvokeRequest  `xml:"InvokeRequest,omitempty"`
	Response *soapInvokeResponse `xml:"InvokeResponse,omitempty"`
	Fault    *soapFault          `xml:"Fault,omitempty"`
}

type soapInvokeRequest struct {
	Module string     `xml:"module,attr"`
	Inputs []soapPort `xml:"Input"`
}

type soapInvokeResponse struct {
	Module  string     `xml:"module,attr"`
	Outputs []soapPort `xml:"Output"`
}

type soapPort struct {
	Name  string    `xml:"name,attr"`
	Value *xmlValue `xml:"Value"`
}

type soapFault struct {
	Code    string `xml:"Code"`
	Message string `xml:"Message"`
}

// SOAPHandler serves the modules of a registry over the SOAP wire format
// at a single endpoint. Unavailable modules produce a NotFound fault.
func SOAPHandler(reg *registry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
		if err != nil {
			writeSOAPFault(w, http.StatusBadRequest, "Validation", err.Error())
			return
		}
		var env soapEnvelope
		if err := xml.Unmarshal(body, &env); err != nil {
			writeSOAPFault(w, http.StatusBadRequest, "Validation", err.Error())
			return
		}
		if env.Body.Request == nil {
			writeSOAPFault(w, http.StatusBadRequest, "Validation", "missing InvokeRequest")
			return
		}
		req := env.Body.Request
		m, available, ok := reg.Lookup(req.Module)
		if !ok || !available {
			writeSOAPFault(w, http.StatusNotFound, "NotFound", "unknown module "+req.Module)
			return
		}
		inputs := make(map[string]typesys.Value, len(req.Inputs))
		for _, in := range req.Inputs {
			if in.Value == nil {
				writeSOAPFault(w, http.StatusBadRequest, "Validation", "input "+in.Name+" missing value")
				return
			}
			v, err := valueFromXML(*in.Value)
			if err != nil {
				writeSOAPFault(w, http.StatusBadRequest, "Validation", err.Error())
				return
			}
			inputs[in.Name] = v
		}
		outs, err := m.Invoke(inputs)
		if err != nil {
			if module.IsExecutionError(err) {
				writeSOAPFault(w, http.StatusUnprocessableEntity, "Execution", err.Error())
			} else {
				writeSOAPFault(w, http.StatusBadRequest, "Validation", err.Error())
			}
			return
		}
		resp := soapInvokeResponse{Module: req.Module}
		for _, p := range m.Outputs {
			x, err := valueToXML(outs[p.Name])
			if err != nil {
				writeSOAPFault(w, http.StatusInternalServerError, "Validation", err.Error())
				return
			}
			xc := x
			resp.Outputs = append(resp.Outputs, soapPort{Name: p.Name, Value: &xc})
		}
		writeSOAP(w, http.StatusOK, soapEnvelope{Body: soapBody{Response: &resp}})
	})
}

func writeSOAPFault(w http.ResponseWriter, status int, code, msg string) {
	writeSOAP(w, status, soapEnvelope{Body: soapBody{Fault: &soapFault{Code: code, Message: msg}}})
}

func writeSOAP(w http.ResponseWriter, status int, env soapEnvelope) {
	w.Header().Set("Content-Type", "text/xml")
	w.WriteHeader(status)
	data, err := xml.MarshalIndent(env, "", "  ")
	if err != nil {
		return
	}
	_, _ = w.Write([]byte(xml.Header))
	_, _ = w.Write(data)
}

// SOAPExecutor invokes a remote module over the SOAP wire format. It
// implements module.Executor and module.ContextExecutor. Errors are
// classified like the REST executor's: network faults, timeouts,
// throttling, 5xx answers, and garbled 200 envelopes are retryable
// *module.TransientError values; proper SOAP faults stay plain errors.
type SOAPExecutor struct {
	// Endpoint is the full SOAP endpoint URL.
	Endpoint string
	// ModuleID is the remote module identifier.
	ModuleID string
	// Client is the HTTP client to use; a shared client with
	// DefaultTimeout when nil.
	Client *http.Client
}

// Invoke performs the remote call with no caller-supplied deadline (the
// client timeout still applies).
func (e *SOAPExecutor) Invoke(inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	return e.InvokeContext(context.Background(), inputs)
}

// InvokeContext performs the remote call, honouring ctx. When a
// telemetry tracer rides in ctx the round-trip is recorded as a
// "transport.soap" span; transient transport faults mark it failed.
func (e *SOAPExecutor) InvokeContext(ctx context.Context, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	ctx, span := telemetry.StartSpan(ctx, "transport.soap")
	span.Annotate("module", e.ModuleID)
	outs, err := e.invokeContext(ctx, inputs)
	if module.IsTransient(err) {
		span.Fail(err)
	}
	span.End()
	return outs, err
}

func (e *SOAPExecutor) invokeContext(ctx context.Context, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	req := soapInvokeRequest{Module: e.ModuleID}
	// Deterministic input order for stable wire traffic.
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sortStrings(names)
	for _, n := range names {
		x, err := valueToXML(inputs[n])
		if err != nil {
			return nil, fmt.Errorf("transport: encoding input %s: %w", n, err)
		}
		xc := x
		req.Inputs = append(req.Inputs, soapPort{Name: n, Value: &xc})
	}
	payload, err := xml.Marshal(soapEnvelope{Body: soapBody{Request: &req}})
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.Endpoint, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	httpReq.Header.Set("Content-Type", "text/xml")
	resp, err := clientOrDefault(e.Client).Do(httpReq)
	if err != nil {
		return nil, classifyDialErr(e.ModuleID, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return nil, module.Transient(e.ModuleID, module.FaultConnection, fmt.Errorf("reading response: %w", err))
	}
	if len(data) > maxResponseBody {
		return nil, module.Transient(e.ModuleID, module.FaultMalformed, fmt.Errorf("response exceeds %d-byte limit", maxResponseBody))
	}
	// Status first: throttling and gateway errors classify by status; only
	// wire-format answers are handed to the XML decoder.
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return nil, classifyStatus(e.ModuleID, resp.StatusCode, data)
		}
		var env soapEnvelope
		if looksLikeWireFormat(data, "<") && xml.Unmarshal(data, &env) == nil && env.Body.Fault != nil {
			return nil, fmt.Errorf("transport: remote fault %s: %s", env.Body.Fault.Code, env.Body.Fault.Message)
		}
		return nil, classifyStatus(e.ModuleID, resp.StatusCode, data)
	}
	var env soapEnvelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, module.Transient(e.ModuleID, module.FaultMalformed,
			fmt.Errorf("decoding envelope: %w (body %s)", err, bodySnippet(data)))
	}
	if env.Body.Fault != nil {
		return nil, fmt.Errorf("transport: remote fault %s: %s", env.Body.Fault.Code, env.Body.Fault.Message)
	}
	if env.Body.Response == nil {
		return nil, module.Transient(e.ModuleID, module.FaultMalformed,
			fmt.Errorf("envelope carries no response (body %s)", bodySnippet(data)))
	}
	values := make(map[string]typesys.Value, len(env.Body.Response.Outputs))
	for _, out := range env.Body.Response.Outputs {
		if out.Value == nil {
			return nil, module.Transient(e.ModuleID, module.FaultMalformed, fmt.Errorf("output %s missing value", out.Name))
		}
		v, err := valueFromXML(*out.Value)
		if err != nil {
			return nil, module.Transient(e.ModuleID, module.FaultMalformed, fmt.Errorf("decoding output %s: %w", out.Name, err))
		}
		values[out.Name] = v
	}
	return values, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// BindRemote rebinds a module signature to a remote endpoint according to
// its declared form: REST modules get a RESTExecutor, SOAP modules a
// SOAPExecutor. Local modules are left untouched (they need an in-process
// executor). baseURL is the server root for REST; soapEndpoint the SOAP
// POST URL.
func BindRemote(m *module.Module, baseURL, soapEndpoint string, client *http.Client) {
	switch m.Form {
	case module.FormREST:
		m.Bind(&RESTExecutor{BaseURL: baseURL, ModuleID: m.ID, Client: client})
	case module.FormSOAP:
		m.Bind(&SOAPExecutor{Endpoint: soapEndpoint, ModuleID: m.ID, Client: client})
	}
}
