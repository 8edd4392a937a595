package cluster

import (
	"compress/flate"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"dexa/internal/longpoll"
	"dexa/internal/store"
)

// Follower tails a leader's replication feed and mirrors its store.
// The loop is a pipelined long-poll: fetch records past the local
// sequence, kick off the fetch for the next batch, and apply the
// current one through the store's batch-native replicated path (own
// WAL, one flush and fsync per batch, gap rejection) while the next
// response is in flight — decode and apply overlap with the network,
// so a catching-up follower is bounded by the slower of the two
// instead of their sum. Bodies are decoded streaming (no buffering of
// the raw transfer), and the follower negotiates flate compression
// with "Accept-Encoding: deflate"; frame CRCs are computed over the
// uncompressed payloads, so the disk WAL's integrity check covers the
// wire end to end.
//
// A killed follower restarts from whatever sequence its WAL recovered
// to — re-fetching only what it lost — and a follower that diverged
// from the leader (the cursor fell out of the leader's window, or the
// leader itself lost a torn tail and rewound) receives a reset stream
// and replaces its state wholesale.
type Follower struct {
	// Leader is the leader's base URL (the /wal endpoint is appended).
	Leader string
	Store  *store.Store
	// Client issues the feed requests; its Timeout must exceed Wait.
	// nil selects a client that outlasts any wait.
	Client *http.Client
	// Wait is the long-poll window per request (0 selects the feed's
	// default by omitting the parameter).
	Wait    time.Duration
	Metrics *Metrics
	Logger  *slog.Logger

	leaderSeq atomic.Uint64
	applied   atomic.Uint64
	resets    atomic.Uint64
	errors    atomic.Uint64
	lastErr   atomic.Value // string
}

// feedAnswer is one decoded feed response.
type feedAnswer struct {
	status int
	reset  bool
	next   uint64
	recs   []store.Record
}

// Run tails the leader until ctx is cancelled. Transport and apply
// errors are retried with exponential backoff (capped at 5s) rather
// than returned: a follower outlives leader restarts. While a batch
// applies, the fetch for the next one is already in flight.
func (f *Follower) Run(ctx context.Context) error {
	client := f.client()
	backoff := longpoll.Backoff{Max: 5 * time.Second}
	var pending *pendingFetch
	defer func() {
		if pending != nil {
			pending.abort()
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		var ans *feedAnswer
		var err error
		if pending != nil {
			ans, err = pending.wait()
			pending = nil
		} else {
			ans, err = f.fetch(ctx, client, f.Store.Seq())
		}
		if err == nil && ans.status == http.StatusOK && !ans.reset && len(ans.recs) > 0 {
			// Pipeline: the next batch travels while this one applies.
			// Not after a reset — ResetReplicated moves the cursor
			// wholesale, so a prefetched delta would be misaddressed.
			pending = f.startFetch(ctx, client, ans.next)
		}
		if err == nil {
			err = f.applyAnswer(ans)
		}
		if err != nil {
			// The local sequence may not be where the pending fetch
			// assumed: drop it and re-fetch from the recovered cursor.
			if pending != nil {
				pending.abort()
				pending = nil
			}
			if ctx.Err() != nil {
				return nil
			}
			f.errors.Add(1)
			f.lastErr.Store(err.Error())
			if f.Metrics != nil {
				f.Metrics.TailErrors.Inc()
			}
			if f.Logger != nil {
				f.Logger.Warn("cluster: tail round failed", "leader", f.Leader, "err", err)
			}
			if !backoff.Sleep(ctx) {
				return nil
			}
			continue
		}
		backoff.Reset()
	}
}

// client returns the configured HTTP client or one whose timeout
// outlasts the longest wait the feed holds a request for.
func (f *Follower) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Timeout: longpoll.MaxWait + 10*time.Second}
}

// TailOnce performs one feed round trip and applies its records.
func (f *Follower) TailOnce(ctx context.Context, client *http.Client) error {
	if client == nil {
		client = f.client()
	}
	ans, err := f.fetch(ctx, client, f.Store.Seq())
	if err != nil {
		return err
	}
	return f.applyAnswer(ans)
}

// pendingFetch is an in-flight feed request issued ahead of need.
type pendingFetch struct {
	cancel context.CancelFunc
	ch     chan fetchOutcome
}

type fetchOutcome struct {
	ans *feedAnswer
	err error
}

func (p *pendingFetch) wait() (*feedAnswer, error) {
	out := <-p.ch
	return out.ans, out.err
}

// abort cancels the request and reaps the goroutine.
func (p *pendingFetch) abort() {
	p.cancel()
	<-p.ch
}

// startFetch issues a feed request for cursor on its own goroutine.
func (f *Follower) startFetch(ctx context.Context, client *http.Client, cursor uint64) *pendingFetch {
	fctx, cancel := context.WithCancel(ctx)
	p := &pendingFetch{cancel: cancel, ch: make(chan fetchOutcome, 1)}
	go func() {
		defer cancel()
		ans, err := f.fetch(fctx, client, cursor)
		p.ch <- fetchOutcome{ans, err}
	}()
	return p
}

// fetch performs one feed request from cursor and decodes the body
// streaming — frames are verified and unmarshalled as they arrive,
// inflating first when the leader negotiated compression.
func (f *Follower) fetch(ctx context.Context, client *http.Client, cursor uint64) (*feedAnswer, error) {
	u := f.Leader + "/wal?from=" + strconv.FormatUint(cursor, 10)
	if f.Wait > 0 {
		u += "&wait=" + url.QueryEscape(f.Wait.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	// Setting the header ourselves also tells net/http not to do its own
	// gzip negotiation; the body arrives exactly as negotiated.
	req.Header.Set("Accept-Encoding", "deflate")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	if seq, err := strconv.ParseUint(resp.Header.Get("X-Dexa-Leader-Seq"), 10, 64); err == nil {
		f.leaderSeq.Store(seq)
	}
	f.observe()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return &feedAnswer{status: http.StatusNoContent}, nil
	case http.StatusOK:
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("cluster: feed answered %s: %s", resp.Status, body)
	}
	next, err := strconv.ParseUint(resp.Header.Get("X-Dexa-Wal-Next"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("cluster: feed answer missing X-Dexa-Wal-Next")
	}
	body := io.Reader(resp.Body)
	if resp.Header.Get("Content-Encoding") == "deflate" {
		fr := flate.NewReader(body)
		defer fr.Close()
		body = fr
	}
	recs, err := DecodeFrameStream(body)
	if err != nil {
		// A torn frame in transit: apply nothing from this batch and
		// re-request from the unchanged local sequence.
		return nil, err
	}
	return &feedAnswer{
		status: http.StatusOK,
		reset:  resp.Header.Get("X-Dexa-Wal-Reset") == "1",
		next:   next,
		recs:   recs,
	}, nil
}

// applyAnswer folds one decoded feed answer into the local store.
func (f *Follower) applyAnswer(ans *feedAnswer) error {
	if ans.status == http.StatusNoContent {
		return nil // quiet window; poll again
	}
	if ans.reset {
		if err := f.Store.ResetReplicated(ans.recs, ans.next); err != nil {
			return err
		}
		f.resets.Add(1)
		if f.Metrics != nil {
			f.Metrics.Resets.Inc()
		}
		if f.Logger != nil {
			f.Logger.Info("cluster: full-state reset applied", "leader", f.Leader, "modules", len(ans.recs), "seq", ans.next)
		}
	} else if len(ans.recs) > 0 {
		applied, _, err := f.Store.ApplyReplicatedBatch(ans.recs)
		f.applied.Add(uint64(applied))
		if f.Metrics != nil {
			f.Metrics.Applied.Add(uint64(applied))
		}
		if err != nil {
			return err
		}
	}
	f.observe()
	return nil
}

// observe refreshes the gauges from the current positions.
func (f *Follower) observe() {
	if f.Metrics == nil {
		return
	}
	leader, local := f.leaderSeq.Load(), f.Store.Seq()
	f.Metrics.LeaderSeq.Set(float64(leader))
	f.Metrics.LocalSeq.Set(float64(local))
	f.Metrics.ReplicationLag.Set(float64(lag(leader, local)))
}

// lag is the follower's distance behind the leader; a follower ahead of
// a rewound leader (divergence about to be reset away) reports zero
// rather than wrapping.
func lag(leader, local uint64) uint64 {
	if leader <= local {
		return 0
	}
	return leader - local
}

// Status reports the follower's replication position for /stats.
type FollowerStatus struct {
	Leader    string `json:"leader"`
	LeaderSeq uint64 `json:"leaderSeq"`
	LocalSeq  uint64 `json:"localSeq"`
	Lag       uint64 `json:"lag"`
	Applied   uint64 `json:"applied"`
	Resets    uint64 `json:"resets"`
	Errors    uint64 `json:"errors"`
	LastError string `json:"lastError,omitempty"`
}

// Status snapshots the tailer's position and counters.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{
		Leader:    f.Leader,
		LeaderSeq: f.leaderSeq.Load(),
		LocalSeq:  f.Store.Seq(),
		Applied:   f.applied.Load(),
		Resets:    f.resets.Load(),
		Errors:    f.errors.Load(),
	}
	st.Lag = lag(st.LeaderSeq, st.LocalSeq)
	if v, ok := f.lastErr.Load().(string); ok {
		st.LastError = v
	}
	return st
}
