package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dexa/internal/resilient"
)

// Checker probes every shard's readiness endpoint on a fixed period and
// feeds the verdicts through a per-shard circuit breaker from the
// resilient stack: a few consecutive failed probes open the breaker (the
// shard is down), the cool-down admits half-open re-probes, and one good
// probe closes it again. The Router consults Healthy before fanning out
// so a dead shard costs nothing per query instead of a timeout each.
type Checker struct {
	// Shards to probe; readiness is GET <url>/readyz.
	Shards  []ShardConfig
	Metrics *Metrics

	mu       sync.Mutex
	breakers map[string]*resilient.Breaker
	lastErr  map[string]string
	lastSeen map[string]time.Time
}

// ShardHealth is one shard's probe verdict for /stats.
type ShardHealth struct {
	Shard     string    `json:"shard"`
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	Breaker   string    `json:"breaker"`
	LastError string    `json:"lastError,omitempty"`
	LastSeen  time.Time `json:"lastSeen,omitempty"`
}

// Probe settings: a round every probeInterval, each probe bounded by
// probeTimeout; probeFailures consecutive failed probes open a shard's
// breaker, which admits a half-open re-probe one interval later.
const (
	probeInterval = 2 * time.Second
	probeTimeout  = time.Second
	probeFailures = 3
)

func (c *Checker) init() {
	if c.breakers != nil {
		return
	}
	cfg := resilient.BreakerConfig{FailureThreshold: probeFailures, Cooldown: probeInterval}
	c.breakers = make(map[string]*resilient.Breaker, len(c.Shards))
	c.lastErr = make(map[string]string, len(c.Shards))
	c.lastSeen = make(map[string]time.Time, len(c.Shards))
	for _, sh := range c.Shards {
		c.breakers[sh.Name] = resilient.NewBreaker(cfg, nil)
	}
}

// Run probes until ctx is cancelled. One round runs immediately so the
// first routing decisions are informed.
func (c *Checker) Run(ctx context.Context) {
	ticker := time.NewTicker(probeInterval)
	defer ticker.Stop()
	c.CheckOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.CheckOnce(ctx)
		}
	}
}

// CheckOnce probes every shard once, concurrently.
func (c *Checker) CheckOnce(ctx context.Context) {
	c.mu.Lock()
	c.init()
	c.mu.Unlock()
	client := &http.Client{Timeout: probeTimeout}
	var wg sync.WaitGroup
	for _, sh := range c.Shards {
		wg.Add(1)
		go func(sh ShardConfig) {
			defer wg.Done()
			err := probeReady(ctx, client, sh.URL)
			c.record(sh.Name, err)
		}(sh)
	}
	wg.Wait()
}

func probeReady(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz answered %s", resp.Status)
	}
	return nil
}

func (c *Checker) record(name string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[name]
	if b == nil {
		return
	}
	if err != nil {
		b.OnFailure()
		c.lastErr[name] = err.Error()
	} else {
		b.OnSuccess()
		c.lastErr[name] = ""
		c.lastSeen[name] = time.Now()
	}
	if c.Metrics != nil {
		up := 0.0
		if b.State() == resilient.BreakerClosed {
			up = 1
		}
		c.Metrics.ShardUp.With(name).Set(up)
	}
}

// Healthy reports whether the shard's breaker currently admits traffic.
// An unknown or never-probed shard is presumed healthy — the Router's
// per-request timeout is the backstop, and presuming down would turn a
// checker hiccup into a full outage.
func (c *Checker) Healthy(name string) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[name]
	if b == nil {
		return true
	}
	return b.State() != resilient.BreakerOpen
}

// Status reports every shard's verdict, sorted by name.
func (c *Checker) Status() []ShardHealth {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardHealth, 0, len(c.Shards))
	for _, sh := range c.Shards {
		h := ShardHealth{Shard: sh.Name, URL: sh.URL, Healthy: true, Breaker: "closed"}
		if b := c.breakers[sh.Name]; b != nil {
			state := b.State()
			h.Breaker = state.String()
			h.Healthy = state != resilient.BreakerOpen
			h.LastError = c.lastErr[sh.Name]
			h.LastSeen = c.lastSeen[sh.Name]
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}
