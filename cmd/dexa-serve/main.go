// Command dexa-serve hosts the full 252-module catalog as a provider
// (REST under /rest, SOAP at /soap) and as an annotation service backed
// by the persistent example store (the /api endpoints): browse the
// catalog, fetch stored example sets with ETag revalidation, trigger
// on-demand generation (deduplicated across concurrent requests), and
// search substitutes for decayed modules from their stored annotations.
//
// Usage:
//
//	dexa-serve -addr 127.0.0.1:8080 -store ./dexa-store
//
//	curl http://127.0.0.1:8080/api/catalog
//	curl http://127.0.0.1:8080/api/modules/getUniprotRecord/examples
//	curl -X POST http://127.0.0.1:8080/api/modules/transcribe/generate
//	curl http://127.0.0.1:8080/api/modules/getUniprotRecord/substitutes
//	curl http://127.0.0.1:8080/api/matches
//	curl http://127.0.0.1:8080/api/stats
//	curl http://127.0.0.1:8080/rest/modules
//	curl http://127.0.0.1:8080/metrics
//	curl http://127.0.0.1:8080/debug/traces
//
// Operations: /metrics serves Prometheus text exposition, /debug/traces
// the most recent request traces as JSON, and -pprof mounts the
// net/http/pprof suite under /debug/pprof/. Every API response carries an
// X-Request-ID (client-supplied IDs are echoed), and -access-log
// controls the per-request structured log line on stderr.
//
// The live catalog lifecycle (-probe-interval, 0 = off) continuously
// re-probes annotated modules against their stored data examples through
// the resilient executor stack, quarantines modules that drift or die,
// retires persistent failures (enqueueing repair proposals for human
// approval — see dexa-repair -queue), and re-admits recovered modules
// after probation. It adds /api/lifecycle, /api/events, /api/watch (a
// long-poll change feed with ETag resume cursors) and /api/repairs; with
// -store the transition log and repair queue persist beside the example
// store and survive restarts.
//
// Without -store the service runs on a memory-only store: everything
// works, nothing survives the process. SIGINT/SIGTERM shut the server
// down gracefully — the listener closes, in-flight requests drain for up
// to -grace, and the store's write-ahead log is flushed before exit.
//
// Chaos mode turns the provider into a decaying 2014-era service: a
// seeded share of requests suffers connection resets, 429/503 answers,
// truncated or garbage bodies, latency spikes, and flapping windows:
//
//	dexa-serve -chaos 0.25 -chaos-seed 42 \
//	           -chaos-latency-rate 0.05 -chaos-latency 300ms \
//	           -chaos-flap-every 50 -chaos-flap-for 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dexa/internal/buildinfo"
	"dexa/internal/cluster"
	"dexa/internal/faults"
	"dexa/internal/lifecycle"
	"dexa/internal/match"
	"dexa/internal/search"
	"dexa/internal/serve"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/telemetry"
	"dexa/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	storeDir := flag.String("store", "", "example store directory (empty = memory-only store)")
	compactEvery := flag.Int("store-compact-every", 256, "auto-compact the store after this many WAL appends (0 disables)")
	syncOnPut := flag.Bool("store-sync", false, "fsync the store WAL on every write (durable but slower)")
	grace := flag.Duration("grace", serve.DefaultGrace, "how long to drain in-flight requests on shutdown")
	chaos := flag.Float64("chaos", 0, "transient fault rate in [0,1], spread uniformly over reset/429/503/truncate/garbage")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the deterministic fault stream")
	latencyRate := flag.Float64("chaos-latency-rate", 0, "probability of a latency spike before a normal answer")
	latency := flag.Duration("chaos-latency", 250*time.Millisecond, "injected latency per spike")
	flapEvery := flag.Int("chaos-flap-every", 0, "serve this many requests per module, then go dark (0 disables flapping)")
	flapFor := flag.Int("chaos-flap-for", 0, "answer 503 for this many requests per dark window")
	probeInterval := flag.Duration("probe-interval", 0, "base lifecycle probe period per module (0 disables the live catalog lifecycle)")
	probeExamples := flag.Int("probe-examples", 4, "stored examples re-invoked per probe")
	probeQuarantine := flag.Int("probe-quarantine-after", 2, "consecutive bad probes before quarantine")
	probeRetire := flag.Int("probe-retire-after", 2, "additional bad probes in quarantine before retirement")
	probeProbation := flag.Int("probe-probation", 2, "consecutive healthy probes before re-admission")
	probeSeed := flag.Int64("probe-seed", 1, "seed for deterministic probe phases and jitter")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	accessLog := flag.Bool("access-log", true, "emit one structured log line per API request")
	traceCap := flag.Int("trace-capacity", telemetry.DefaultTraceCapacity, "recent request traces kept for /debug/traces")
	version := flag.Bool("version", false, "print build identity and exit")
	clusterConfig := flag.String("cluster-config", "", "membership file making this instance one shard of a cluster (requires -cluster-self)")
	clusterSelf := flag.String("cluster-self", "", "this instance's shard name in -cluster-config (or its instance name with -follow)")
	follow := flag.String("follow", "", "run as a read-only follower tailing this leader's /wal feed")
	lagMax := flag.Uint64("replication-lag-max", 1024, "follower readiness gate: /readyz answers 503 above this many unapplied records (0 disables)")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *clusterConfig != "" && *follow != "" {
		fmt.Fprintln(os.Stderr, "pick one of -cluster-config (shard) or -follow (read replica)")
		os.Exit(2)
	}
	if *clusterConfig != "" && *clusterSelf == "" {
		fmt.Fprintln(os.Stderr, "-cluster-config requires -cluster-self")
		os.Exit(2)
	}

	metrics := telemetry.Default
	tracer := telemetry.NewTracer(*traceCap)
	var logger *slog.Logger
	if *accessLog {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	fmt.Fprintln(os.Stderr, "building experimental universe...")
	u := simulation.NewUniverse()
	serve.InstrumentOntology(metrics, u.Ont)

	st, err := store.Open(*storeDir, store.Options{CompactEvery: *compactEvery, SyncOnPut: *syncOnPut, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *storeDir != "" {
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "store %s: %d modules, %d examples (replayed %d WAL records",
			*storeDir, stats.Modules, stats.Examples, stats.Recovered)
		if stats.TailTruncated {
			fmt.Fprint(os.Stderr, ", torn tail truncated")
		}
		fmt.Fprintln(os.Stderr, ")")
	} else {
		fmt.Fprintln(os.Stderr, "store: memory-only (pass -store DIR to persist annotations)")
	}
	if n := u.Registry.LoadExamplesFrom(st); n > 0 {
		fmt.Fprintf(os.Stderr, "hydrated %d registry entries from the store\n", n)
	}

	source := store.NewSource(st, u.Gen)
	serve.InstrumentSource(metrics, source)
	cmp := match.NewComparer(u.Ont, source)
	cmp.Index = match.NewCatalogIndex(u.Ont, u.Registry.Modules())
	cmp.Index.Instrument(metrics)
	cmp.Metrics = metrics
	// The registry's availability hook is the one route from a flip
	// (manual retirement, lifecycle quarantine, retirement or
	// re-admission) to the derived views: it bumps the index generation
	// that keys the cached /matches and /substitutes bodies, so they
	// never keep ranking a retired module.
	serve.SyncIndex(u.Registry, cmp.Index)

	// Repository search: the inverted index over catalog metadata and
	// stored behavior fingerprints behind GET /api/search. Incremental
	// maintenance only — availability flips patch single documents
	// through the same hook, and the replication-cursor watcher folds in
	// store writes (local generates, replicated WAL applies). No rebuilds
	// after this one.
	searchIx := search.New(u.Ont)
	searchIx.Instrument(metrics)
	searchSync := &search.Syncer{Registry: u.Registry, Store: st, Index: searchIx}
	fmt.Fprintf(os.Stderr, "search: indexed %d modules\n", searchSync.IndexAll())
	searchSync.HookAvailability()

	api := &serve.Server{
		Registry:    u.Registry,
		Store:       st,
		Source:      source,
		Comparer:    cmp,
		SearchIndex: searchIx,
		Telemetry:   metrics,
		Tracer:      tracer,
		Logger:      logger,
	}

	// Live catalog lifecycle: background probes, quarantine/recovery, and
	// the repair queue. Journals live beside the store when one is on disk.
	// The manager restores each module's state from the event log and
	// flips availability only through the registry, so both indexes
	// above follow it without further wiring.
	var preStop []func() error
	if *probeInterval > 0 {
		eventPath, queuePath := "", ""
		if *storeDir != "" {
			eventPath = filepath.Join(*storeDir, lifecycle.EventLogFile)
			queuePath = filepath.Join(*storeDir, lifecycle.QueueFile)
		}
		lcLog, err := lifecycle.OpenLog(eventPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		queue, err := lifecycle.OpenQueue(queuePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		queue.Instrument(metrics)
		planner := &lifecycle.Planner{Comparer: cmp, Store: st, Registry: u.Registry}
		mgr, err := lifecycle.NewManager(lifecycle.Config{
			Interval:        *probeInterval,
			MaxExamples:     *probeExamples,
			QuarantineAfter: *probeQuarantine,
			RetireAfter:     *probeRetire,
			Probation:       *probeProbation,
			Seed:            *probeSeed,
		}, lifecycle.Deps{
			Registry: u.Registry,
			Examples: st,
			Log:      lcLog,
			Queue:    queue,
			Planner:  planner,
			Metrics:  metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tracked := mgr.TrackAll()
		api.Lifecycle = mgr
		probeCtx, stopProbes := context.WithCancel(context.Background())
		probeDone := make(chan error, 1)
		go func() { probeDone <- mgr.Run(probeCtx) }()
		// Shutdown ordering: stop the probe workers first, then flush the
		// lifecycle journals, and only afterwards (inside serve.Serve) the
		// example store — no transition event is lost on SIGTERM.
		preStop = append(preStop, func() error {
			stopProbes()
			err := <-probeDone
			if ferr := lcLog.Close(); err == nil {
				err = ferr
			}
			if qerr := queue.Close(); err == nil {
				err = qerr
			}
			return err
		})
		fmt.Fprintf(os.Stderr, "lifecycle: probing %d annotated modules every %v (events resume at seq %d, %d repair proposals pending)\n",
			tracked, *probeInterval, lcLog.Seq(), queue.Pending())
	}

	// The shutdown signal context exists before the cluster goroutines so
	// checker, follower and server all stop on the same SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Search-index maintenance loop: the replication-cursor watcher folds
	// in every store write (local or WAL-applied).
	go searchSync.Watch(ctx)

	// Cluster wiring: a shard node leads its slice of the catalog (WAL
	// feed at /wal, cross-shard reads, one summary watch per peer
	// that is also its health check); a follower tails a leader and
	// serves its replicated slice read-only.
	var (
		feed     *cluster.Feed
		follower *cluster.Follower
	)
	if *clusterConfig != "" {
		cfg, err := cluster.LoadConfig(*clusterConfig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		node, err := cluster.NewShardNode(cfg, *clusterSelf, metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		feed = cluster.NewFeed(st, node.Metrics)
		node.Feed = feed
		api.Cluster = node
		go node.Checker.Run(ctx)
		fmt.Fprintf(os.Stderr, "cluster: shard %q of %d (ring owns %d of %d modules)\n",
			*clusterSelf, len(cfg.Shards), countOwned(node, u.Registry.IDs()), u.Registry.Len())
	}
	if *follow != "" {
		self := *clusterSelf
		if self == "" {
			if host, err := os.Hostname(); err == nil {
				self = host
			} else {
				self = "follower"
			}
		}
		follower = &cluster.Follower{
			Leader:  strings.TrimSuffix(*follow, "/"),
			Store:   st,
			Metrics: cluster.NewMetrics(metrics),
			Logger:  logger,
		}
		api.Cluster = &cluster.Node{Self: self, Role: cluster.RoleFollower, Follower: follower}
		go follower.Run(ctx)
		fmt.Fprintf(os.Stderr, "cluster: follower %q tailing %s from seq %d\n", self, follower.Leader, st.Seq())
	}

	restHandler := http.Handler(transport.RESTHandler(u.Registry))
	soapHandler := http.Handler(transport.SOAPHandler(u.Registry))

	profile := faults.Uniform(*chaos)
	profile.Latency = *latencyRate
	profile.LatencyAmount = *latency
	profile.FlapEvery = *flapEvery
	profile.FlapFor = *flapFor
	if err := profile.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if profile.Enabled() {
		inj := faults.NewInjector(*chaosSeed, faults.Plan{Default: profile})
		restHandler = faults.Middleware(restHandler, inj)
		soapHandler = faults.Middleware(soapHandler, inj)
		fmt.Fprintf(os.Stderr, "chaos enabled: %.0f%% transient faults, %.0f%% latency spikes of %v, seed %d\n",
			100*profile.TransientRate(), 100*profile.Latency, profile.LatencyAmount, *chaosSeed)
	}

	mux := http.NewServeMux()
	mux.Handle("/rest/", http.StripPrefix("/rest", restHandler))
	mux.Handle("/soap", soapHandler)
	mux.Handle("/api/", http.StripPrefix("/api", api.Handler()))
	mux.Handle("/metrics", serve.Ops(serve.OpsOptions{Registry: metrics, Tracer: tracer}))
	mux.Handle("/debug/", serve.Ops(serve.OpsOptions{Registry: metrics, Tracer: tracer, Pprof: *pprofOn}))
	if feed != nil {
		mux.Handle("/wal", feed)
	}
	// Liveness vs readiness: /healthz says the process is up (restart me
	// if this fails), /readyz says it should receive traffic (route away
	// while draining or while a follower is too far behind its leader).
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "ok: %s, %d modules available, %d annotated in store\n",
			buildinfo.String(), len(u.Registry.Available()), st.Len())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if api.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if follower != nil && *lagMax > 0 {
			if lag := follower.Status().Lag; lag > *lagMax {
				http.Error(w, fmt.Sprintf("replication lag %d exceeds %d", lag, *lagMax), http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("serving %d modules at http://%s (REST under /rest, SOAP at /soap, annotation API under /api)\n",
		len(u.Registry.Available()), ln.Addr())

	httpSrv := &http.Server{Handler: mux}
	// The moment graceful shutdown begins: flip readiness (/readyz reads
	// the API's drain latch), release every parked long-poll (/api/watch,
	// /api/cluster/summary, /wal) so the drain window is bounded by
	// in-flight work, not poll timeouts.
	httpSrv.RegisterOnShutdown(func() {
		api.BeginDrain()
		if feed != nil {
			feed.BeginDrain()
		}
	})
	if err := serve.Serve(ctx, httpSrv, ln, *grace, st, preStop...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "shut down cleanly; store flushed")
}

// countOwned counts the module IDs the ring places on this shard.
func countOwned(n *cluster.Node, ids []string) int {
	owned := 0
	for _, id := range ids {
		if n.Owns(id) {
			owned++
		}
	}
	return owned
}
