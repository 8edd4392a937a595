package faults

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"

	"dexa/internal/transport"
)

// Middleware wraps an HTTP handler with server-side fault injection: the
// handler's answer passes through a RoundTripper over the same injector,
// so both sides inject the same fault shapes. A connection reset aborts
// the connection mid-response via http.ErrAbortHandler; a truncated
// answer is the handler's own, cut in half.
func Middleware(h http.Handler, inj *Injector) http.Handler {
	rt := &RoundTripper{Base: handlerTransport{h}, Inj: inj}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := rt.RoundTrip(r)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		for k, vs := range resp.Header {
			w.Header()[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	})
}

// handlerTransport answers a round trip with an in-process handler.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := &captureWriter{header: http.Header{}, status: http.StatusOK}
	t.h.ServeHTTP(rec, r)
	return &http.Response{StatusCode: rec.status, Header: rec.header, Body: io.NopCloser(&rec.buf), Request: r}, nil
}

// captureWriter buffers a handler's full response.
type captureWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(status int) { c.status = status }

func (c *captureWriter) Write(p []byte) (int, error) { return c.buf.Write(p) }

// ErrInjectedReset is the error surfaced by a RoundTripper conn-reset
// fault.
var ErrInjectedReset = errors.New("fault injection: connection reset by peer")

// RoundTripper wraps an http.RoundTripper with client-side fault
// injection, for chaos against servers that cannot be wrapped themselves.
// Each request is charged to the module transport.ModuleOf names.
// Injected faults:
//
//   - conn-reset: the round trip fails with ErrInjectedReset.
//   - throttle / unavailable: 429 / 503 with a text body — deliberately
//     not the JSON/XML wire format, like a real load balancer answering
//     for a dead backend.
//   - truncate: the real answer arrives with half its body.
//   - garbage: a 200 carrying undecodable junk.
//   - latency: the answer is delayed, then served normally.
type RoundTripper struct {
	// Base performs real round trips; nil means http.DefaultTransport.
	Base http.RoundTripper
	// Inj decides the fault per request.
	Inj *Injector
}

// RoundTrip implements http.RoundTripper.
func (t *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	id := transport.ModuleOf(req)
	switch t.Inj.Decide(id) {
	case FaultConnReset:
		return nil, ErrInjectedReset
	case FaultThrottle:
		return synthesized(req, http.StatusTooManyRequests, "fault injection: rate limit exceeded"), nil
	case FaultUnavailable:
		return synthesized(req, http.StatusServiceUnavailable, "fault injection: upstream unavailable"), nil
	case FaultGarbage:
		return synthesized(req, http.StatusOK, "\x1f\x8b\x00garbage\xffnot-a-wire-format\x00\x02"), nil
	case FaultTruncate:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		resp.ContentLength = int64(len(body) / 2)
		return resp, nil
	case FaultLatency:
		t.Inj.sleep(t.Inj.Profile(id).LatencyAmount)
	}
	return base.RoundTrip(req)
}

// synthesized builds an in-memory HTTP response without touching the
// network.
func synthesized(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Status:        http.StatusText(status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
