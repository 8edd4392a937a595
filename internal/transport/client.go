package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dexa/internal/module"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// DefaultTimeout bounds every outbound HTTP call made by the transport
// executors when the caller supplies no client of their own. A scientific
// provider that stops answering must surface as a classified timeout
// fault — never as a goroutine hung forever on http.DefaultClient.
const DefaultTimeout = 30 * time.Second

// DefaultClient is the shared outbound client with DefaultTimeout.
var DefaultClient = &http.Client{Timeout: DefaultTimeout}

// clientOrDefault never returns a deadline-free client.
func clientOrDefault(c *http.Client) *http.Client {
	if c == nil {
		return DefaultClient
	}
	return c
}

// maxResponseBody caps every body a remote invocation reads: the call the
// handler decodes and the answer the executor decodes.
const maxResponseBody = 16 << 20

// snippetLen bounds how much of an unexpected body is quoted in errors.
const snippetLen = 160

// codec is the one part of a remote invocation a wire format supplies: how
// a call, an answer and a refusal are spelled. The round trip, the body
// caps, the fault classification and the handler flow are shared.
type codec interface {
	spanName() string
	contentType() string
	// encodeRequest spells a call, adding the headers the format needs to h.
	encodeRequest(moduleID string, inputs map[string]typesys.Value, h http.Header) ([]byte, error)
	decodeRequest(r *http.Request, body []byte) (moduleID string, inputs map[string]typesys.Value, err error)
	encodeResponse(moduleID string, outs map[string]typesys.Value) ([]byte, error)
	// decodeResponse reads an answer: its outputs or the remote fault it
	// carries. err means the body is not the wire format.
	decodeResponse(body []byte) (map[string]typesys.Value, *remoteFault, error)
	// encodeFault spells the refusal answered with an HTTP status.
	encodeFault(status int, msg string) []byte
}

// remoteFault is a refusal answered in the wire format. It is the server
// speaking, not the network, so it stays a plain error: the module layer
// wraps it as an abnormal termination and nothing retries it.
type remoteFault struct{ kind, msg string }

func (f *remoteFault) Error() string { return "transport: remote fault " + f.kind + ": " + f.msg }

// roundTrip is the client half of a remote invocation, for either wire
// format. When a telemetry tracer rides in ctx the round trip is recorded
// as the codec's span; transient transport faults mark it failed.
func roundTrip(ctx context.Context, c codec, client *http.Client, url, moduleID string, inputs map[string]typesys.Value) (outs map[string]typesys.Value, err error) {
	ctx, span := telemetry.StartSpan(ctx, c.spanName())
	span.Annotate("module", moduleID)
	defer func() {
		if module.IsTransient(err) {
			span.Fail(err)
		}
		span.End()
	}()
	header := http.Header{"Content-Type": {c.contentType()}}
	payload, err := c.encodeRequest(moduleID, inputs, header)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	req.Header = header
	resp, err := clientOrDefault(client).Do(req)
	if err != nil {
		return nil, classifyDialErr(moduleID, err)
	}
	defer resp.Body.Close()
	body, err := readBody(moduleID, resp)
	if err != nil {
		return nil, err
	}
	return classifyAnswer(c, moduleID, resp.StatusCode, body)
}

// readBody reads an answer up to maxResponseBody. A failed read is a
// connection fault; a longer answer is a malformed one.
func readBody(moduleID string, resp *http.Response) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody+1))
	if err != nil {
		return nil, module.Transient(moduleID, module.FaultConnection, fmt.Errorf("reading response: %w", err))
	}
	if len(body) > maxResponseBody {
		return nil, module.Transient(moduleID, module.FaultMalformed, fmt.Errorf("response exceeds %d-byte limit", maxResponseBody))
	}
	return body, nil
}

// classifyAnswer turns an HTTP answer into exactly one of: the outputs of
// a well-formed answer; a remote fault, a plain error; a transient fault
// for throttling, 5xx answers and 200s that are not a well-formed answer;
// or a hard error for any other status.
func classifyAnswer(c codec, moduleID string, status int, body []byte) (map[string]typesys.Value, error) {
	outs, fault, err := c.decodeResponse(body)
	switch {
	// Status first: a proxy's 502 HTML page or a load balancer's
	// plain-text 429 classifies by status, whatever the decoder made of it.
	case status != http.StatusOK && (fault == nil || status == http.StatusTooManyRequests || status >= 500):
		return nil, classifyStatus(moduleID, status, body)
	case fault != nil:
		return nil, fault
	case err != nil:
		// A 200 that does not decode is wire corruption (truncated or
		// garbled in flight) — transient, retryable.
		return nil, module.Transient(moduleID, module.FaultMalformed,
			fmt.Errorf("decoding response: %w (body %s)", err, bodySnippet(body)))
	case len(outs) == 0:
		// Every module declares an output, so no well-formed answer is empty.
		return nil, module.Transient(moduleID, module.FaultMalformed,
			fmt.Errorf("answer carries no outputs (body %s)", bodySnippet(body)))
	}
	return outs, nil
}

// bodySnippet quotes the head of a body for error messages, escaped so
// it stays single-line and printable.
func bodySnippet(body []byte) string {
	switch {
	case len(body) == 0:
		return "(empty body)"
	case len(body) > snippetLen:
		return fmt.Sprintf("%q…", body[:snippetLen])
	}
	return fmt.Sprintf("%q", body)
}

// classifyDialErr converts an http.Client round-trip error into the
// transient-fault taxonomy: deadline and timeout failures become timeout
// faults, everything else (resets, refused connections, aborted
// responses) a connection fault. Both are retryable — they are the
// network speaking, not the module.
func classifyDialErr(moduleID string, err error) error {
	kind := module.FaultConnection
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
		(errors.As(err, &ne) && ne.Timeout()) {
		kind = module.FaultTimeout
	}
	return module.Transient(moduleID, kind, err)
}

// classifyStatus maps a non-200 HTTP status with an unparseable (non
// wire-format) body onto the taxonomy. Throttling and gateway-style
// statuses are transient; anything else is a hard error carrying the
// status and a body snippet, so a proxy's HTML 502 page never surfaces as
// a bare "decoding response" mystery.
func classifyStatus(moduleID string, status int, body []byte) error {
	switch {
	case status == http.StatusTooManyRequests:
		return &module.TransientError{ModuleID: moduleID, Kind: module.FaultThrottled, Status: status,
			Err: fmt.Errorf("throttled: %s", bodySnippet(body))}
	case status >= 500:
		return &module.TransientError{ModuleID: moduleID, Kind: module.FaultUnavailable, Status: status,
			Err: fmt.Errorf("unavailable: %s", bodySnippet(body))}
	default:
		return fmt.Errorf("transport: unexpected status %d: %s", status, bodySnippet(body))
	}
}
