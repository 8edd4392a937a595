package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/match"
	"dexa/internal/search"
	"dexa/internal/serve"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

// Store policy: dexa-serve's defaults (-store-compact-every 256,
// -store-sync off).
const (
	compactEvery = 256
	syncOnPut    = false
)

// node is one dexa-serve instance booted in-process behind a real
// loopback listener: its own universe, store, comparer, search index and
// serve.Server, wired the way cmd/dexa-serve wires them (access log off:
// a log line per request would only measure stderr).
type node struct {
	name    string
	u       *simulation.Universe
	st      *store.Store
	source  *store.Source
	cmp     *match.Comparer
	index   *search.Index
	srv     *serve.Server
	api     http.Handler   // srv.Handler(), mounted under /api
	root    *http.ServeMux // /api, /metrics, /readyz and /wal
	metrics *telemetry.Registry
	cl      *cluster.Node
	feed    *cluster.Feed
	url     string

	hs     *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// nodeConfig selects a node's role.
type nodeConfig struct {
	name  string
	dir   string          // store directory; "" keeps the store in memory
	shard *cluster.Config // non-nil: a shard of this membership
	feed  bool            // serve the store's replication feed at /wal
	// owns limits seeding to the modules this node stores (nil = all).
	owns func(id string) bool
	// wrap, when set, wraps the node's root handler (traced runs record
	// server-side spans there).
	wrap func(name string, h http.Handler) http.Handler
}

// startNode boots a node on ln and seeds its store through its own
// generator, then starts serving.
func startNode(ln net.Listener, cfg nodeConfig) (*node, error) {
	n := &node{name: cfg.name, url: "http://" + ln.Addr().String(), metrics: telemetry.NewRegistry()}
	n.u = simulation.NewUniverse()
	serve.InstrumentOntology(n.metrics, n.u.Ont)

	st, err := store.Open(cfg.dir, store.Options{CompactEvery: compactEvery, SyncOnPut: syncOnPut, Metrics: n.metrics})
	if err != nil {
		return nil, err
	}
	n.st = st
	n.u.Registry.LoadExamplesFrom(st)
	n.source = store.NewSource(st, n.u.Gen)
	serve.InstrumentSource(n.metrics, n.source)
	n.cmp = match.NewComparer(n.u.Ont, n.source)
	n.cmp.Index = match.NewCatalogIndex(n.u.Ont, n.u.Registry.Modules())
	n.cmp.Index.Instrument(n.metrics)
	n.cmp.Metrics = n.metrics
	serve.SyncIndex(n.u.Registry, n.cmp.Index)

	// Seed the catalog before the search index is built, as a restart
	// over a populated store would: the index then starts complete and
	// the replication watcher only folds in later writes.
	for _, id := range n.u.Registry.IDs() {
		if cfg.owns != nil && !cfg.owns(id) {
			continue
		}
		e, _ := n.u.Registry.Get(id)
		if _, _, err := n.source.Generate(e.Module); err != nil {
			st.Close()
			return nil, fmt.Errorf("%s: seeding %s: %w", cfg.name, id, err)
		}
	}

	n.index = search.New(n.u.Ont)
	n.index.Instrument(n.metrics)
	syncer := &search.Syncer{Registry: n.u.Registry, Store: st, Index: n.index}
	syncer.IndexAll()
	syncer.HookAvailability()

	n.srv = &serve.Server{
		Registry:    n.u.Registry,
		Store:       st,
		Source:      n.source,
		Comparer:    n.cmp,
		SearchIndex: n.index,
		Telemetry:   n.metrics,
		Tracer:      telemetry.NewTracer(telemetry.DefaultTraceCapacity),
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.goRun(func() { syncer.Watch(ctx) })

	if cfg.shard != nil {
		cl, err := cluster.NewShardNode(*cfg.shard, cfg.name, n.metrics)
		if err != nil {
			n.close()
			return nil, err
		}
		n.feed = cluster.NewFeed(st, cl.Metrics)
		cl.Feed = n.feed
		n.cl = cl
		n.srv.Cluster = cl
		n.goRun(func() { cl.Checker.Run(ctx) })
	} else if cfg.feed {
		n.feed = cluster.NewFeed(st, cluster.NewMetrics(n.metrics))
	}

	n.api = n.srv.Handler()
	mux := http.NewServeMux()
	mux.Handle("/api/", http.StripPrefix("/api", n.api))
	mux.Handle("/metrics", serve.Ops(serve.OpsOptions{Registry: n.metrics}))
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprintln(w, "ready") })
	if n.feed != nil {
		mux.Handle("/wal", n.feed)
	}
	n.root = mux
	var root http.Handler = mux
	if cfg.wrap != nil {
		root = cfg.wrap(cfg.name, root)
	}
	n.hs = &http.Server{Handler: root}
	n.goRun(func() { _ = n.hs.Serve(ln) })
	return n, nil
}

func (n *node) goRun(fn func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
}

// close stops the node's goroutines, drops its connections and closes
// its store; it returns once every goroutine the node started has ended.
func (n *node) close() {
	n.cancel()
	if n.srv != nil {
		n.srv.BeginDrain()
	}
	if n.feed != nil {
		n.feed.BeginDrain()
	}
	if n.hs != nil {
		_ = n.hs.Close() // errors only report already-closed listeners
	}
	n.wg.Wait()
	_ = n.st.Close() // nothing is read back from a benchmark store
}

// follower is the churn workload's read replica: a store tailing the
// leader's /wal over loopback through cluster.Follower, plus a watcher
// that timestamps every sequence the follower reaches.
type follower struct {
	st     *store.Store
	f      *cluster.Follower
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	progress []seqAt
}

// seqAt records when a store reached a sequence number.
type seqAt struct {
	at  time.Time
	seq uint64
}

func startFollower(leaderURL, dir string) (*follower, error) {
	reg := telemetry.NewRegistry()
	st, err := store.Open(dir, store.Options{CompactEvery: compactEvery, SyncOnPut: syncOnPut, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	fo := &follower{st: st, cancel: cancel}
	fo.f = &cluster.Follower{Leader: leaderURL, Store: st, Metrics: cluster.NewMetrics(reg)}
	fo.wg.Add(2)
	go func() {
		defer fo.wg.Done()
		_ = fo.f.Run(ctx) // Run retries internally and returns nil on cancel
	}()
	go func() {
		defer fo.wg.Done()
		fo.watch(ctx)
	}()
	return fo, nil
}

// watch records the time of every advance of the follower's sequence.
func (fo *follower) watch(ctx context.Context) {
	cursor := fo.st.Seq()
	for {
		select {
		case <-ctx.Done():
			return
		case <-fo.st.ReplicationChanged(cursor):
		}
		now := time.Now()
		cursor = fo.st.Seq()
		fo.mu.Lock()
		fo.progress = append(fo.progress, seqAt{now, cursor})
		fo.mu.Unlock()
	}
}

// progressSoFar returns the follower's recorded advances, in sequence
// order. The watcher only appends, so the returned prefix stays valid.
func (fo *follower) progressSoFar() []seqAt {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	return fo.progress
}

// waitFor blocks until the follower holds seq or the timeout passes.
func (fo *follower) waitFor(seq uint64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		cur := fo.st.Seq()
		if cur >= seq {
			return true
		}
		select {
		case <-fo.st.ReplicationChanged(cur):
		case <-deadline:
			return false
		}
	}
}

func (fo *follower) close() {
	fo.cancel()
	fo.wg.Wait()
	_ = fo.st.Close()
}

// topology is the booted system one run drives.
type topology struct {
	nodes    []*node // request targets, indexed by request.Node
	follower *follower
	dirs     []string
}

func (t *topology) close() {
	if t.follower != nil {
		t.follower.close()
	}
	for _, n := range t.nodes {
		n.close()
	}
	for _, d := range t.dirs {
		_ = os.RemoveAll(d) // scratch space under the checkout's build dir
	}
}

// listen opens n loopback listeners.
func listen(n int) ([]net.Listener, error) {
	lns := make([]net.Listener, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// boot starts the workload's topology. scratch is a directory for
// on-disk stores; wrap (may be nil) wraps every node's root handler.
func boot(w *workload, scratch string, wrap func(string, http.Handler) http.Handler) (*topology, error) {
	t := &topology{}
	switch w.topology {
	case topoSingle:
		lns, err := listen(1)
		if err != nil {
			return nil, err
		}
		n, err := startNode(lns[0], nodeConfig{name: "single", wrap: wrap})
		if err != nil {
			lns[0].Close()
			return nil, err
		}
		t.nodes = []*node{n}
	case topoLeaderFollower:
		lns, err := listen(1)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(scratch, "churn-")
		if err != nil {
			lns[0].Close()
			return nil, err
		}
		t.dirs = append(t.dirs, dir)
		n, err := startNode(lns[0], nodeConfig{name: "leader", dir: filepath.Join(dir, "leader"), feed: true, wrap: wrap})
		if err != nil {
			lns[0].Close()
			t.close()
			return nil, err
		}
		t.nodes = []*node{n}
		if t.follower, err = startFollower(n.url, filepath.Join(dir, "follower")); err != nil {
			t.close()
			return nil, err
		}
	case topoShards:
		lns, err := listen(len(shardNames))
		if err != nil {
			return nil, err
		}
		var cfg cluster.Config
		for i, name := range shardNames {
			cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Name: name, URL: "http://" + lns[i].Addr().String()})
		}
		ring, err := cfg.Ring()
		if err != nil {
			return nil, err
		}
		for i, name := range shardNames {
			owner := name
			n, err := startNode(lns[i], nodeConfig{
				name:  name,
				shard: &cfg,
				owns:  func(id string) bool { return ring.Owner(id) == owner },
				wrap:  wrap,
			})
			if err != nil {
				for _, l := range lns[i:] {
					l.Close()
				}
				t.close()
				return nil, err
			}
			t.nodes = append(t.nodes, n)
		}
	default:
		return nil, fmt.Errorf("unknown topology %q", w.topology)
	}
	return t, nil
}
