package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// HTTPOptions configures server-side HTTP instrumentation. Every field is
// optional; the zero value yields a middleware that only manages request
// IDs (cheap, and always useful for correlating error reports).
type HTTPOptions struct {
	// Registry receives the request metrics; nil disables them.
	Registry *Registry
	// Tracer starts a root span per request; nil disables tracing.
	Tracer *Tracer
	// Logger writes one structured line per completed request; nil
	// disables request logging.
	Logger *slog.Logger
}

// HTTPInstrument wraps route handlers with request-ID management,
// per-route metrics (request count by method/status, latency histogram,
// in-flight gauge, response bytes), an optional root trace span, and an
// optional structured access log. Build one per server and wrap each
// route with Route — the route string becomes the metric label, keeping
// label cardinality bounded no matter what paths clients probe.
type HTTPInstrument struct {
	opts     HTTPOptions
	requests *CounterVec   // route, method, code
	latency  *HistogramVec // route
	inflight *Gauge
	bytes    *CounterVec // route

	ridPrefix string
	ridSeq    atomic.Uint64
}

// NewHTTPInstrument builds the instrument and registers its metric
// families (when a registry is configured).
func NewHTTPInstrument(opts HTTPOptions) *HTTPInstrument {
	var buf [4]byte
	if _, err := rand.Read(buf[:]); err != nil {
		binary.BigEndian.PutUint32(buf[:], uint32(time.Now().UnixNano()))
	}
	h := &HTTPInstrument{
		opts:      opts,
		ridPrefix: fmt.Sprintf("%08x", binary.BigEndian.Uint32(buf[:])),
	}
	if reg := opts.Registry; reg != nil {
		h.requests = reg.CounterVec("dexa_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "code")
		h.latency = reg.HistogramVec("dexa_http_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern.",
			nil, "route")
		h.inflight = reg.Gauge("dexa_http_in_flight_requests",
			"HTTP requests currently being served.")
		h.bytes = reg.CounterVec("dexa_http_response_bytes_total",
			"Response body bytes written, by route pattern.",
			"route")
	}
	return h
}

type requestIDKey struct{}

// RequestIDHeader is the header request IDs are read from and echoed on.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds accepted client-supplied request IDs; longer
// values are replaced, not truncated, so IDs stay opaque.
const maxRequestIDLen = 128

// newRequestID mints a process-unique request ID.
func (h *HTTPInstrument) newRequestID() string {
	return h.ridPrefix + "-" + strconv.FormatUint(h.ridSeq.Add(1), 16)
}

// usableRequestID reports whether a client-supplied ID is safe to echo
// and log: bounded length, printable ASCII, no header/log injection.
func usableRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] >= 0x7f {
			return false
		}
	}
	return true
}

// statusWriter captures the response status and body size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards http.Flusher so streaming handlers keep working when
// wrapped.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Route wraps next with the full per-request instrumentation under the
// given route label (the registered pattern, e.g. "/modules/{id}").
func (h *HTTPInstrument) Route(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		rid := r.Header.Get(RequestIDHeader)
		if !usableRequestID(rid) {
			rid = h.newRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		ctx := context.WithValue(r.Context(), requestIDKey{}, rid)

		var sp *Span
		if h.opts.Tracer != nil {
			ctx, sp = StartSpan(WithTracer(ctx, h.opts.Tracer), "http "+r.Method+" "+route)
			sp.Annotate("path", r.URL.Path)
			sp.Annotate("requestId", rid)
		}

		h.inflight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		h.inflight.Dec()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)

		if h.requests != nil {
			h.requests.With(route, r.Method, strconv.Itoa(sw.status)).Inc()
			h.latency.With(route).Observe(elapsed.Seconds())
			h.bytes.With(route).Add(uint64(sw.bytes))
		}
		if sp != nil {
			sp.Annotate("status", strconv.Itoa(sw.status))
			if sw.status >= 500 {
				sp.Fail(fmt.Errorf("status %d", sw.status))
			}
			sp.End()
		}
		if h.opts.Logger != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed),
				slog.String("requestId", rid),
				slog.String("remote", r.RemoteAddr),
			}
			// The root span's ID, as /debug/traces prints it in "trace",
			// so a logged request leads to its trace.
			if sp != nil {
				attrs = append(attrs, slog.Uint64("trace", sp.traceID))
			}
			h.opts.Logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}
	})
}

// writeJSON is the JSON response helper shared by the telemetry
// handlers: two-space indent and a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
