package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dexa/internal/telemetry"
)

// TestCheckerOpensDeadShard: three failed probe rounds open a dead
// shard's breaker, while a live shard stays up. The open breaker shows
// in Healthy, in Status with the last probe error, in the shard-up
// gauge, and in fanOut, which fails the shard without calling it.
func TestCheckerOpensDeadShard(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
		}
	}))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	cfg := Config{Shards: []ShardConfig{{Name: "dead", URL: dead.URL}, {Name: "live", URL: live.URL}}}
	ring, err := cfg.Ring()
	if err != nil {
		t.Fatal(err)
	}
	met := NewMetrics(telemetry.NewRegistry())
	c := &Checker{Shards: cfg.Shards, Metrics: met}
	for round := 0; round < probeFailures; round++ {
		if !c.Healthy("dead") {
			t.Fatalf("the dead shard's breaker opened after %d rounds, want %d", round, probeFailures)
		}
		c.CheckOnce(context.Background())
	}

	if c.Healthy("dead") || !c.Healthy("live") {
		t.Fatalf("after %d rounds: dead healthy %v, live healthy %v", probeFailures, c.Healthy("dead"), c.Healthy("live"))
	}
	status := c.Status()
	if len(status) != 2 {
		t.Fatalf("Status has %d shards, want 2", len(status))
	}
	if d := status[0]; d.Shard != "dead" || d.Healthy || d.Breaker != "open" || d.LastError == "" {
		t.Errorf("dead shard status %+v, want unhealthy, open, with the last error", d)
	}
	if l := status[1]; l.Shard != "live" || !l.Healthy || l.LastError != "" || l.LastSeen.IsZero() {
		t.Errorf("live shard status %+v", l)
	}
	if up := met.ShardUp.With("dead").Value(); up != 0 {
		t.Errorf("dexa_cluster_shard_up{shard=dead} = %v, want 0", up)
	}
	if up := met.ShardUp.With("live").Value(); up != 1 {
		t.Errorf("dexa_cluster_shard_up{shard=live} = %v, want 1", up)
	}

	rt := &Router{Config: cfg, Ring: ring, Checker: c, Metrics: met}
	var called atomic.Int32
	results := fanOut(rt, context.Background(), cfg.Shards, "probe-test", func(ctx context.Context, sh ShardConfig) (string, error) {
		if sh.Name == "dead" {
			t.Error("fanOut called the breaker-open shard")
		}
		called.Add(1)
		return sh.Name, nil
	})
	if called.Load() != 1 || results[0].err == nil || results[1].err != nil || results[1].reply != "live" {
		t.Fatalf("fanOut made %d calls; dead err %v, live %q err %v", called.Load(), results[0].err, results[1].reply, results[1].err)
	}
}
