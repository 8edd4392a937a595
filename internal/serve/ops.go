package serve

import (
	"net/http"
	"net/http/pprof"

	"dexa/internal/ontology"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

// OpsOptions configures the operational endpoint handler.
type OpsOptions struct {
	// Registry backs GET /metrics (Prometheus text exposition). nil still
	// mounts the endpoint; it exposes an empty registry.
	Registry *telemetry.Registry
	// Tracer backs GET /debug/traces (recent root spans as JSON). nil
	// mounts an endpoint reporting zero traces.
	Tracer *telemetry.Tracer
	// Pprof additionally mounts net/http/pprof under /debug/pprof/.
	// Off by default: profiling endpoints expose internals and should be
	// an explicit operator decision (dexa-serve's -pprof flag).
	Pprof bool
}

// Ops returns the operational handler: GET /metrics, GET /debug/traces,
// and (opt-in) the /debug/pprof suite. Mount it on the server root, next
// to the API handler — these endpoints are for operators and scrapers,
// so they stay outside the API prefix and outside its request metrics
// (a scrape every few seconds would otherwise dominate the route
// histograms).
func Ops(opts OpsOptions) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", telemetry.MetricsHandler(opts.Registry))
	mux.Handle("GET /debug/traces", telemetry.TracesHandler(opts.Tracer))
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// InstrumentOntology exports the ontology's reasoning-cache counters as
// dexa_ontology_cache_{hits,builds}_total. The ontology keeps plain
// atomics and stays telemetry-free; the func collectors read them on
// scrape.
func InstrumentOntology(r *telemetry.Registry, ont *ontology.Ontology) {
	if r == nil || ont == nil {
		return
	}
	r.CounterFunc("dexa_ontology_cache_hits_total", "Reasoning calls served by the cached reachability index.",
		func() float64 { hits, _ := ont.CacheStats(); return float64(hits) })
	r.CounterFunc("dexa_ontology_cache_builds_total", "Reachability index rebuilds.",
		func() float64 { _, builds := ont.CacheStats(); return float64(builds) })
}

// InstrumentSource exports the store-backed source's generation counters
// as dexa_generator_runs_total and dexa_singleflight_dedup_hits_total.
func InstrumentSource(r *telemetry.Registry, src *store.Source) {
	if r == nil || src == nil {
		return
	}
	r.CounterFunc("dexa_generator_runs_total", "Underlying generator runs performed by the store-backed source.",
		func() float64 { return float64(src.Runs()) })
	r.CounterFunc("dexa_singleflight_dedup_hits_total", "Generate/Refresh calls deduplicated onto an in-flight run.",
		func() float64 { return float64(src.SharedHits()) })
}
