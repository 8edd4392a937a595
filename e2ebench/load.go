package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/dataexample"
)

// client is one closed-loop load source. Each has its own transport, so a
// source holds its own keep-alive connection to every node it talks to.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true, IdleConnTimeout: time.Minute}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is one HTTP response. body is only valid until the client's next
// request.
type answer struct {
	status int
	etag   string
	body   []byte
}

// do sends r to the node at base (redirects are followed) and reads the
// whole body. etag feeds If-None-Match on conditional requests; reqID,
// when set, tags the request for the traced run's span recorder.
func (c *client) do(ctx context.Context, base string, r request, etag, reqID string) (answer, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, base+"/api"+r.Path, nil)
	if err != nil {
		return answer{}, err
	}
	if r.Cond {
		req.Header.Set("If-None-Match", etag)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return answer{}, err
	}
	return answer{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: c.buf.Bytes()}, nil
}

// phase is what one timed phase observed.
type phase struct {
	lat     []float64       // reader latency per request, ms
	done    []time.Duration // when each reader request completed, from the phase start
	ok      []bool
	elapsed time.Duration // first reader request sent → last answer read

	writeLat []float64 // churn: due → acknowledged, ms
	fresh    []float64 // churn: acknowledged → follower holds the write, ms
	schedLag []float64 // churn: how late the writer sent each write, ms
	writes   int       // churn: writes sent, every one that fell due before the stop
	writeOK  int
	acks     []seqAt // churn: when each successful write was acknowledged, and its seq

	failures []string // the first few failure descriptions
	mu       sync.Mutex
}

func (ph *phase) fail(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// readerFailures counts reader requests that failed or did not pass their
// check.
func (ph *phase) readerFailures() int {
	n := 0
	for _, ok := range ph.ok {
		if !ok {
			n++
		}
	}
	return n
}

// runPhase replays the plan's request sequence over w.conns closed-loop
// connections (each takes the next unsent request when its previous one
// completes) and, for churn, the writer's schedule as an open loop that
// stops when the readers finish. It returns once the follower holds every
// acknowledged write.
func runPhase(w *workload, top *topology, ck *checker, p *plan) *phase {
	n := len(p.requests)
	ph := &phase{lat: make([]float64, n), done: make([]time.Duration, n), ok: make([]bool, n)}
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	start := time.Now()
	if len(p.writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWriter(start, top, ck.cat, p.writes, ph, stop, nil)
		}()
	}
	var readers sync.WaitGroup
	for i := 0; i < w.conns; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			c := newClient()
			defer c.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.requests) {
					return
				}
				r := p.requests[i]
				t0 := time.Now()
				a, err := c.do(ctx, top.nodes[r.Node].url, r, ck.etag(r), "")
				t1 := time.Now()
				ph.lat[i] = float64(t1.Sub(t0)) / float64(time.Millisecond)
				ph.done[i] = t1.Sub(start)
				if err == nil {
					err = ck.verify(i, a)
				}
				if err != nil {
					ph.fail("request %d %s %s: %v", i, r.Method, r.Path, err)
					continue
				}
				ph.ok[i] = true
			}
		}()
	}
	readers.Wait()
	ph.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	ph.measureFreshness(top.follower)
	return ph
}

// ackFunc observes one acknowledged write of the churn writer (the
// traced run records spans there).
type ackFunc func(i int, wr write, sent, ack time.Time)

// runWriter is the churn curator: an open loop that re-annotates modules
// through the leader's store.Put on a fixed schedule, timing each write
// from when it was due, so a stalled commit path also delays (and is
// charged for) every write behind it. Closing stop ends the schedule:
// the writer still sends every write that fell due before the stop, late
// if it lags, and no write due after it. onAck may be nil.
func runWriter(start time.Time, top *topology, cat *catalog, writes []write, ph *phase, stop <-chan struct{}, onAck ackFunc) {
	leader := top.nodes[0]
	ph.acks = make([]seqAt, 0, len(writes))
	var stopped time.Time
	for i, wr := range writes {
		due := start.Add(wr.Due)
		if stopped.IsZero() {
			timer := time.NewTimer(time.Until(due))
			select {
			case <-stop:
				timer.Stop()
				stopped = time.Now()
			case <-timer.C:
			}
		}
		if !stopped.IsZero() && due.After(stopped) {
			return
		}
		sent := time.Now()
		ph.schedLag = append(ph.schedLag, float64(sent.Sub(due))/float64(time.Millisecond))
		ph.writes++
		_, changed, err := leader.st.Put(wr.Module, cat.annotation(wr.Module, wr.Variant))
		ack := time.Now()
		ph.writeLat = append(ph.writeLat, float64(ack.Sub(due))/float64(time.Millisecond))
		switch {
		case err != nil:
			ph.fail("write %s: %v", wr.Module, err)
		case !changed:
			ph.fail("write %s (variant %d) changed nothing", wr.Module, wr.Variant)
		default:
			ph.writeOK++
			ph.acks = append(ph.acks, seqAt{ack, leader.st.Seq()})
			if onAck != nil {
				onAck(i, wr, sent, ack)
			}
		}
	}
}

// measureFreshness runs once the writer has stopped: it waits until the
// follower holds the last acknowledged write, then finds, in one merge
// pass over the acknowledgements and the follower's progress (both in
// sequence order), when the follower first held each write.
func (ph *phase) measureFreshness(fo *follower) {
	if len(ph.acks) == 0 {
		return
	}
	last := ph.acks[len(ph.acks)-1].seq
	if !fo.waitFor(last, 30*time.Second) {
		ph.fail("follower did not reach seq %d within 30s", last)
		return
	}
	progress := fo.progressSoFar()
	j := 0
	for _, a := range ph.acks {
		for j < len(progress) && progress[j].seq < a.seq {
			j++
		}
		if j == len(progress) {
			ph.fail("no follower progress recorded for seq %d", a.seq)
			return
		}
		d := max(0, progress[j].at.Sub(a.at))
		ph.fresh = append(ph.fresh, float64(d)/float64(time.Millisecond))
	}
}

// annotation returns the set a write stores: the default annotation
// (variant -1) or one of the module's two variants.
func (c *catalog) annotation(id string, variant int) dataexample.Set {
	if variant < 0 {
		return c.sets[id]
	}
	return c.variants[id][variant]
}

// windows splits the reader phase into k equal time windows by
// completion time and returns, for each window, the requests completed
// per second and their median and 99th percentile latency, and the fewest
// samples any window has above its own p99.
func (ph *phase) windows(k int) (rates, p50s, p99s []float64, tail int) {
	width := ph.elapsed / time.Duration(k)
	lats := make([][]float64, k)
	for i, d := range ph.done {
		w := min(int(d/width), k-1)
		lats[w] = append(lats[w], ph.lat[i])
	}
	tail = len(ph.lat)
	for _, l := range lats {
		rates = append(rates, float64(len(l))/width.Seconds())
		if len(l) > 0 {
			p99 := percentile(l, 0.99)
			p50s = append(p50s, percentile(l, 0.5))
			p99s = append(p99s, p99)
			tail = min(tail, above(l, p99))
		}
	}
	return rates, p50s, p99s, tail
}
