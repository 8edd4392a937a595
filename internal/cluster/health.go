package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dexa/internal/longpoll"
)

// Checker is a shard node's handle on its peers' health. There is one
// link per peer, the summary long-poll of Router.Watch, and its outcome is
// the only health verdict: a peer is up from its first answered poll until
// a poll fails, and while it is down fanOut fails it without a call.
// Router.Status reports the verdicts.
type Checker struct {
	Router *Router
	Self   string
}

// Run watches every peer until ctx ends.
func (c *Checker) Run(ctx context.Context) { c.Router.Watch(ctx, c.Self) }

// ShardHealth is one member's health verdict for /stats.
type ShardHealth struct {
	Shard     string    `json:"shard"`
	URL       string    `json:"url"`
	Healthy   bool      `json:"healthy"`
	LastError string    `json:"lastError,omitempty"`
	LastSeen  time.Time `json:"lastSeen,omitzero"` // absent until a poll answers
}

// peer is everything a shard knows of another: the summary it last sent,
// the state of its watch, and the outcome of its last poll.
type peer struct {
	summary  *Summary
	watch    string    // a Watch* state; "" while no watch runs
	lastErr  error     // why the last poll failed; nil once one answers
	lastSeen time.Time // when a poll last answered
}

// Watch states of a peer, as /stats reports them.
const (
	WatchPolling = "polling" // the watch started and has had no answer yet
	WatchWatched = "watched" // the last long-poll answered: the peer is up and its summary current
	WatchFailed  = "failed"  // the last long-poll failed: the peer is down
)

// watchWait is how long a watch's long-poll parks on the peer; a poll
// not answered within watchWait plus one second has failed.
const watchWait = shardTimeout / 2

// watchBackoffMax caps the retry delay of a watch whose poll failed.
const watchBackoffMax = 2 * time.Second

// peer returns name's state, creating it. The caller holds rt.mu.
func (rt *Router) peer(name string) *peer {
	p := rt.peers[name]
	if p == nil {
		if rt.peers == nil {
			rt.peers = map[string]*peer{}
		}
		p = &peer{}
		rt.peers[name] = p
	}
	return p
}

// Watch keeps one long-poll open on every shard but self until ctx ends.
// Each poll revalidates the summary this node holds of the peer, so the
// peer's index moving reaches this node one loopback hop later, and its
// outcome is the peer's health: an answer makes the peer watched and up,
// and a transport error, any status but 200 and 304 (a draining peer's
// 503 included) or no answer within the wait plus one second makes it
// failed and down until a later poll answers; the failed watch backs off
// and retries. When Watch returns no shard is watched.
func (rt *Router) Watch(ctx context.Context, self string) {
	if rt.Metrics != nil {
		rt.Metrics.ShardUp.With(self).Set(1)
	}
	var wg sync.WaitGroup
	for _, sh := range rt.Config.Shards {
		if sh.Name == self {
			continue
		}
		wg.Add(1)
		go func(sh ShardConfig) {
			defer wg.Done()
			rt.watchShard(ctx, sh)
		}(sh)
	}
	wg.Wait()
}

// watchShard is one peer's watch. Its first poll, and its first after a
// failure, holds nothing and so is answered at once: the peer is watched
// from then on, rather than after a poll parked on a summary it already
// has.
func (rt *Router) watchShard(ctx context.Context, sh ShardConfig) {
	rt.setWatch(sh.Name, WatchPolling)
	defer rt.setWatch(sh.Name, "")
	var held *Summary
	backoff := longpoll.Backoff{Max: watchBackoffMax}
	for {
		pctx, cancel := context.WithTimeout(ctx, watchWait+time.Second)
		sum, err := rt.revalidate(pctx, sh, held, watchWait)
		cancel()
		if ctx.Err() != nil {
			return
		}
		rt.polled(sh.Name, err)
		if err == nil {
			held = sum
			backoff.Reset()
			continue
		}
		held = nil
		if !backoff.Sleep(ctx) {
			return
		}
	}
}

func (rt *Router) setWatch(name, state string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.peer(name).watch = state
}

// polled records the outcome of one watch poll of name.
func (rt *Router) polled(name string, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, up := rt.peer(name), 0.0
	if err == nil {
		p.watch, p.lastErr, p.lastSeen, up = WatchWatched, nil, time.Now(), 1
	} else {
		p.watch, p.lastErr = WatchFailed, err
	}
	if rt.Metrics != nil {
		rt.Metrics.ShardUp.With(name).Set(up)
	}
}

// down returns why a call to name would fail without being made: its
// watch's last poll failed. A peer no watch has answered or failed yet is
// presumed up, with the per-shard timeout as the backstop.
func (rt *Router) down(name string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if p := rt.peers[name]; p != nil && p.watch == WatchFailed {
		return fmt.Errorf("shard %s is down: its last summary poll failed: %w", name, p.lastErr)
	}
	return nil
}

// Healthy reports whether fanOut calls the shard: false only while its
// watch's last poll failed.
func (rt *Router) Healthy(name string) bool { return rt.down(name) == nil }

// Status reports every member's verdict, sorted by name. Self, which no
// watch polls, is listed as healthy.
func (rt *Router) Status() []ShardHealth {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]ShardHealth, 0, len(rt.Config.Shards))
	for _, sh := range rt.Config.Shards {
		h := ShardHealth{Shard: sh.Name, URL: sh.URL, Healthy: true}
		if p := rt.peers[sh.Name]; p != nil {
			h.Healthy, h.LastSeen = p.watch != WatchFailed, p.lastSeen
			if p.lastErr != nil {
				h.LastError = p.lastErr.Error()
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// HeldSummary is one other shard's summary as this node holds it, for
// /stats: the index state it names and the state of its watch ("" before
// the watch starts and after it stops).
type HeldSummary struct {
	Shard      string `json:"shard"`
	Nonce      string `json:"nonce,omitempty"`
	Generation uint64 `json:"generation"`
	Watch      string `json:"watch,omitempty"`
}

// HeldSummaries reports every shard but self's held summary, in
// membership order.
func (rt *Router) HeldSummaries(self string) []HeldSummary {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []HeldSummary
	for _, sh := range rt.Config.Shards {
		if sh.Name == self {
			continue
		}
		h := HeldSummary{Shard: sh.Name}
		if p := rt.peers[sh.Name]; p != nil {
			h.Watch = p.watch
			if p.summary != nil {
				h.Nonce, h.Generation = p.summary.Nonce, p.summary.Generation
			}
		}
		out = append(out, h)
	}
	return out
}
