package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/telemetry"
)

// TestWatchJudgesPeerHealth: the summary watch is the only health check.
// A closed listener is down within a second, a draining peer at its 503,
// a peer that accepts but never answers once a poll goes unanswered for
// the wait plus one second, and a peer whose first poll failed is up
// again after one answered poll. Each verdict shows in Healthy, in Status
// with the last poll error and the last answer's time, in the shard-up
// gauge and in fanOut, which fails a down peer without calling it and
// with an error naming the failed poll. No /readyz request is made.
func TestWatchJudgesPeerHealth(t *testing.T) {
	const wait = watchWait
	var readyz atomic.Int32
	server := func(h http.HandlerFunc) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				readyz.Add(1)
			}
			h(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	drainingAnswered := make(chan time.Time, 1)
	draining := server(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining: stop watching this shard", http.StatusServiceUnavailable)
		select {
		case drainingAnswered <- time.Now():
		default:
		}
	})
	hung := server(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	var recPolls, rec200 atomic.Int32
	recovering := server(func(w http.ResponseWriter, r *http.Request) {
		if recPolls.Add(1) == 1 {
			http.Error(w, "index not ready", http.StatusInternalServerError)
			return
		}
		sum := Summary{Shard: "recovering", Nonce: "n", Generation: 1}
		if r.Header.Get("If-None-Match") == `"`+sum.Tag()+`"` {
			select {
			case <-r.Context().Done():
			case <-time.After(wait):
				w.WriteHeader(http.StatusNotModified)
			}
			return
		}
		rec200.Add(1)
		w.Header().Set("ETag", `"`+sum.Tag()+`"`)
		w.Write([]byte(`{"shard":"recovering","nonce":"n","generation":1,"docs":{}}`))
	})
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()

	cfg := Config{Shards: []ShardConfig{
		{Name: "closed", URL: closed.URL},
		{Name: "draining", URL: draining.URL},
		{Name: "hung", URL: hung.URL},
		{Name: "recovering", URL: recovering.URL},
		{Name: "self", URL: closed.URL},
	}}
	ring, err := cfg.Ring()
	if err != nil {
		t.Fatal(err)
	}
	met := NewMetrics(telemetry.NewRegistry())
	rt := &Router{Config: cfg, Ring: ring, Metrics: met}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		rt.Watch(ctx, "self")
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()

	// awaitDown returns how long after the watch started name went down.
	awaitDown := func(name string, within time.Duration) time.Duration {
		t.Helper()
		for rt.Healthy(name) {
			if time.Since(start) > within {
				t.Fatalf("%s still healthy %v after the watch started, want down within %v", name, time.Since(start), within)
			}
			time.Sleep(time.Millisecond)
		}
		return time.Since(start)
	}
	if d := awaitDown("closed", time.Second); d > time.Second {
		t.Errorf("the closed peer went down after %v, want within 1s", d)
	}
	awaitDown("draining", time.Second)
	if lag := time.Since(<-drainingAnswered); lag > 500*time.Millisecond {
		t.Errorf("the draining peer went down %v after its 503, want at that answer", lag)
	}
	for {
		if hs := rt.HeldSummaries("self"); hs[3].Watch == WatchWatched {
			break
		}
		if time.Since(start) > time.Second {
			t.Fatalf("the recovering peer is not watched 1s after the watch started: %+v", rt.HeldSummaries("self"))
		}
		time.Sleep(time.Millisecond)
	}
	if p, a := recPolls.Load(), rec200.Load(); p < 2 || a != 1 {
		t.Errorf("the recovering peer was watched after %d polls with %d answered 200, want healthy after its first answer", p, a)
	}
	if d := awaitDown("hung", wait+2*time.Second); d < wait+time.Second || d > wait+time.Second+500*time.Millisecond {
		t.Errorf("the hung peer went down %v after the watch started, want once its poll went unanswered for %v", d, wait+time.Second)
	}

	status := rt.Status()
	wantErr := map[string]string{
		"closed":   "connection refused",
		"draining": "503 Service Unavailable: draining",
		"hung":     "context deadline exceeded",
	}
	for _, st := range status {
		if want, down := wantErr[st.Shard]; down {
			if st.Healthy || !strings.Contains(st.LastError, want) || !st.LastSeen.IsZero() {
				t.Errorf("%s status %+v, want unhealthy, never seen, last error containing %q", st.Shard, st, want)
			}
			if up := met.ShardUp.With(st.Shard).Value(); up != 0 {
				t.Errorf("dexa_cluster_shard_up{shard=%s} = %v, want 0", st.Shard, up)
			}
			continue
		}
		if !st.Healthy || st.LastError != "" || !rt.Healthy(st.Shard) {
			t.Errorf("%s status %+v, want healthy without an error", st.Shard, st)
		}
		if up := met.ShardUp.With(st.Shard).Value(); up != 1 {
			t.Errorf("dexa_cluster_shard_up{shard=%s} = %v, want 1", st.Shard, up)
		}
	}
	if rec := status[3]; rec.Shard != "recovering" || rec.LastSeen.IsZero() {
		t.Errorf("recovering status %+v, want the time of its answered poll", rec)
	}
	if self := status[4]; self.Shard != "self" || !self.LastSeen.IsZero() {
		t.Errorf("self status %+v, want healthy and never polled", self)
	}

	var called sync.Map
	results := fanOut(rt, context.Background(), cfg.Shards[:4], "health-test", func(ctx context.Context, sh ShardConfig) (string, error) {
		called.Store(sh.Name, true)
		return sh.Name, nil
	})
	for i, res := range results {
		_, wasCalled := called.Load(res.shard.Name)
		if i == 3 {
			if !wasCalled || res.err != nil || res.reply != "recovering" {
				t.Errorf("fanOut to the recovered peer: called %v, reply %q, err %v", wasCalled, res.reply, res.err)
			}
			continue
		}
		if wasCalled || res.err == nil || !strings.Contains(res.err.Error(), status[i].LastError) {
			t.Errorf("fanOut to the down peer %s: called %v, err %v, want no call and an error naming %q",
				res.shard.Name, wasCalled, res.err, status[i].LastError)
		}
	}
	if n := readyz.Load(); n != 0 {
		t.Errorf("the watch made %d /readyz requests, want none", n)
	}
}
