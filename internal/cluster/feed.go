package cluster

import (
	"cmp"
	"compress/flate"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dexa/internal/longpoll"
	"dexa/internal/store"
)

// The replication feed is the leader half of WAL streaming: followers
// long-poll GET /wal?from=<seq> and receive the mutation records past
// their cursor in the same CRC-framed physical format the disk WAL uses
// (store.EncodeFrame), so a follower verifies end-to-end integrity with
// the checksum logic it already trusts for crash recovery.
//
// Response contract:
//
//	200, body = frame*          — records to apply, in sequence order
//	    X-Dexa-Wal-Next: <seq>  — cursor to resume from after applying
//	    X-Dexa-Leader-Seq: <seq>— the leader's head at answer time
//	    X-Dexa-Wal-Reset: 1     — body is a full-state stream; replace,
//	                              don't apply (cursor fell out of the
//	                              window or diverged past the head)
//	204 (same headers, no body) — nothing new within the wait window
//
// Batching: once an answer has records, the feed holds it open for a
// short window (BatchWindow) and folds records committed right behind
// them into the same response, up to the limit — so a write burst
// costs one round trip, not one per long-poll wakeup.
//
// Compression: a follower that sends "Accept-Encoding: deflate" gets
// the whole frame stream flate-compressed (Content-Encoding: deflate).
// Each frame's CRC is computed over the UNCOMPRESSED payload — the
// disk-WAL rule — so integrity verification is end-to-end: the
// follower inflates, then checks the same checksums crash recovery
// checks, and a corrupt compressed stream fails either inflate or CRC.
//
// A feed being drained (SIGTERM) answers new and parked waiters with an
// immediate 204 instead of holding them for the wait window, so graceful
// shutdown is bounded by in-flight transfer time, not poll timeouts.

// DefaultFeedLimit bounds the records per feed answer when ?limit= is
// absent; a catching-up follower simply polls again.
const DefaultFeedLimit = 512

// DefaultBatchWindow is how long an answer that already has records
// stays open for more, when Feed.BatchWindow is zero. Small enough to
// be invisible in replication lag, large enough to absorb a group
// commit's worth of writes into one response.
const DefaultBatchWindow = 3 * time.Millisecond

// feedFlushEvery pushes partial output to the client every this many
// frames, so a follower decoding a long reset stream overlaps its
// decode with the leader's writes instead of waiting for the last
// byte.
const feedFlushEvery = 256

// Feed serves a store's replication stream over HTTP.
type Feed struct {
	Store   *store.Store
	Metrics *Metrics

	// BatchWindow is how long an answer that already carries records
	// waits for more before closing (0 selects DefaultBatchWindow).
	BatchWindow time.Duration

	drain longpoll.Latch
}

// NewFeed wraps st as a replication feed. met may be nil.
func NewFeed(st *store.Store, met *Metrics) *Feed {
	return &Feed{Store: st, Metrics: met}
}

// BeginDrain releases every parked long-poll waiter and makes new ones
// answer immediately. Wire it to http.Server.RegisterOnShutdown so
// followers detach at the start of a graceful shutdown.
func (f *Feed) BeginDrain() { f.drain.Close() }

func (f *Feed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if f.Metrics != nil {
		f.Metrics.FeedRequests.Inc()
	}
	q := r.URL.Query()
	cursor, err := strconv.ParseUint(cmp.Or(q.Get("from"), "0"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("invalid from %q", q.Get("from")), http.StatusBadRequest)
		return
	}
	limit := DefaultFeedLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("invalid limit %q", v), http.StatusBadRequest)
			return
		}
		if n > 0 {
			limit = n
		}
	}
	wait, err := longpoll.ParseWait(q.Get("wait"), longpoll.DefaultWait)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	recs, next, reset := f.Store.TailSince(cursor, limit)
	if len(recs) == 0 && !reset {
		// At the head: park until the log grows, the wait window closes,
		// the request dies, or the server starts draining.
		switch longpoll.Park(r.Context(), f.Store.ReplicationChanged(cursor), f.drain.Done(), wait) {
		case longpoll.Changed:
			recs, next, reset = f.Store.TailSince(cursor, limit)
		case longpoll.Cancelled:
			return
		}
	}

	// Batch window: the answer has records — hold it open briefly so a
	// burst of commits rides one response instead of one per wakeup.
	if !reset && len(recs) > 0 && len(recs) < limit {
		deadline := time.Now().Add(cmp.Or(f.BatchWindow, DefaultBatchWindow))
		for len(recs) < limit {
			out := longpoll.Park(r.Context(), f.Store.ReplicationChanged(next), f.drain.Done(), time.Until(deadline))
			if out == longpoll.Cancelled {
				return
			}
			if out != longpoll.Changed {
				break
			}
			more, n2, r2 := f.Store.TailSince(next, limit-len(recs))
			if r2 || len(more) == 0 {
				// The window moved under us (or a spurious wake): answer
				// with what we have; the follower's next round sorts it out.
				break
			}
			recs = append(recs, more...)
			next = n2
		}
	}

	w.Header().Set("X-Dexa-Wal-Next", strconv.FormatUint(next, 10))
	w.Header().Set("X-Dexa-Leader-Seq", strconv.FormatUint(f.Store.Seq(), 10))
	if reset {
		w.Header().Set("X-Dexa-Wal-Reset", "1")
		if f.Metrics != nil {
			f.Metrics.FeedResets.Inc()
		}
	}
	if len(recs) == 0 && !reset {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	compress := acceptsDeflate(r.Header.Get("Accept-Encoding"))
	var cw *countingWriter
	var fw *flate.Writer
	var dst io.Writer = w
	if compress {
		w.Header().Set("Content-Encoding", "deflate")
		w.Header().Set("Vary", "Accept-Encoding")
		cw = &countingWriter{w: w}
		// BestSpeed: replication is throughput-bound, and WAL frames
		// (JSON with long repeated keys) compress well even at level 1.
		fw, _ = flate.NewWriter(cw, flate.BestSpeed)
		dst = fw
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var rawBytes int64
	for i, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return // headers are gone; the follower's CRC check catches the cut
		}
		frame := store.EncodeFrame(payload)
		if _, err := dst.Write(frame); err != nil {
			return
		}
		rawBytes += int64(len(frame))
		if (i+1)%feedFlushEvery == 0 {
			if fw != nil {
				if err := fw.Flush(); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return
		}
	}
	if f.Metrics != nil {
		f.Metrics.FeedRecords.Add(uint64(len(recs)))
		f.Metrics.WalBatchFrames.Observe(float64(len(recs)))
		f.Metrics.WalUncompressedBytes.Add(uint64(rawBytes))
		if cw != nil {
			f.Metrics.WalCompressedBytes.Add(uint64(cw.n))
		}
	}
}

// acceptsDeflate reports whether an Accept-Encoding header offers
// deflate (possibly with a quality parameter).
func acceptsDeflate(header string) bool {
	for _, part := range strings.Split(header, ",") {
		enc := strings.TrimSpace(part)
		if i := strings.IndexByte(enc, ';'); i >= 0 {
			enc = strings.TrimSpace(enc[:i])
		}
		if strings.EqualFold(enc, "deflate") {
			return true
		}
	}
	return false
}

// countingWriter counts bytes written through it (the on-the-wire size
// of a compressed feed body).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DecodeFrameStream decodes records straight off a frame stream — the
// follower's path: it never buffers the raw body, so a long reset
// stream is decoded as it arrives and the transfer's memory cost is
// one frame plus the decoded records. Each frame's checksum is
// verified; a torn or corrupt frame aborts the batch with
// store.ErrTornFrame and returns no records — the caller retries from
// its last applied sequence, which is exactly the no-gap resume the
// store enforces.
func DecodeFrameStream(r io.Reader) ([]store.Record, error) {
	fr := store.NewFrameReader(r)
	var recs []store.Record
	for {
		payload, err := fr.Next()
		if err != nil {
			if err == io.EOF {
				return recs, nil
			}
			return nil, err
		}
		var rec store.Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("cluster: decoding feed record: %w", err)
		}
		recs = append(recs, rec)
	}
}
