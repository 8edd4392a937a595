package transport

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"dexa/internal/module"
	"dexa/internal/registry"
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
// The executor also names the module in the standard SOAPAction header,
// so an interposer can attribute the call without parsing the envelope.
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
	Inputs soapValues `xml:"Input"`
}

type soapInvokeResponse struct {
	Module  string     `xml:"module,attr"`
	Outputs soapValues `xml:"Output"`
}

type soapPort struct {
	Name  string    `xml:"name,attr"`
	Value *xmlValue `xml:"Value"`
}

type soapFault struct {
	Code    string `xml:"Code"`
	Message string `xml:"Message"`
}

// soapValues is named values on the SOAP wire: one port element per
// value, in name order so the wire traffic is stable.
type soapValues map[string]typesys.Value

func (vs soapValues) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x, err := valueToXML(vs[n])
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if err := e.EncodeElement(soapPort{Name: n, Value: &x}, start); err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalXML decodes one port element into the set.
func (vs *soapValues) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	var p soapPort
	if err := d.DecodeElement(&p, &start); err != nil {
		return err
	}
	if p.Value == nil {
		return fmt.Errorf("%s missing value", p.Name)
	}
	v, err := valueFromXML(*p.Value)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	if *vs == nil {
		*vs = soapValues{}
	}
	(*vs)[p.Name] = v
	return nil
}

// soapFaultCodes spells, by HTTP status, the code of a SOAP fault.
var soapFaultCodes = map[int]string{400: "Validation", 404: "NotFound", 422: "Execution", 500: "Validation"}

// soapDocument renders an envelope body as an indented XML document.
func soapDocument(body soapBody) ([]byte, error) {
	data, err := xml.MarshalIndent(soapEnvelope{Body: body}, "", "  ")
	return append([]byte(xml.Header), data...), err
}

type soapCodec struct{}

func (soapCodec) spanName() string    { return "transport.soap" }
func (soapCodec) contentType() string { return "text/xml" }

func (soapCodec) encodeRequest(moduleID string, inputs map[string]typesys.Value, h http.Header) ([]byte, error) {
	h.Set("SOAPAction", `"`+moduleID+`"`)
	return xml.Marshal(soapEnvelope{Body: soapBody{Request: &soapInvokeRequest{Module: moduleID, Inputs: inputs}}})
}

func (soapCodec) decodeRequest(_ *http.Request, body []byte) (string, map[string]typesys.Value, error) {
	var env soapEnvelope
	if err := xml.Unmarshal(body, &env); err != nil {
		return "", nil, err
	}
	if env.Body.Request == nil {
		return "", nil, errors.New("missing InvokeRequest")
	}
	return env.Body.Request.Module, env.Body.Request.Inputs, nil
}

func (soapCodec) encodeResponse(moduleID string, outs map[string]typesys.Value) ([]byte, error) {
	return soapDocument(soapBody{Response: &soapInvokeResponse{Module: moduleID, Outputs: outs}})
}

func (soapCodec) decodeResponse(body []byte) (map[string]typesys.Value, *remoteFault, error) {
	var env soapEnvelope
	if err := xml.Unmarshal(body, &env); err != nil {
		return nil, nil, err
	}
	if f := env.Body.Fault; f != nil {
		return nil, &remoteFault{kind: f.Code, msg: f.Message}, nil
	}
	if env.Body.Response == nil {
		return nil, nil, nil
	}
	return env.Body.Response.Outputs, nil, nil
}

func (soapCodec) encodeFault(status int, msg string) []byte {
	data, _ := soapDocument(soapBody{Fault: &soapFault{Code: soapFaultCodes[status], Message: msg}})
	return data
}

// SOAPHandler serves the modules of a registry over the SOAP wire format
// at a single endpoint. Unavailable modules produce a NotFound fault.
func SOAPHandler(reg *registry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveInvoke(reg, soapCodec{}, w, r)
	})
}

// SOAPExecutor invokes a remote module over the SOAP wire format. It
// implements module.Executor and module.ContextExecutor. Errors are
// classified like the REST executor's: network faults, timeouts,
// throttling, 5xx answers, and garbled or empty 200 envelopes are
// retryable *module.TransientError values; proper SOAP faults stay plain
// errors.
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
	return roundTrip(ctx, soapCodec{}, e.Client, e.Endpoint, e.ModuleID, inputs)
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
