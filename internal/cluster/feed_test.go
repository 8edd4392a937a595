package cluster

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/store"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

func feedSet(tag string) dataexample.Set {
	return dataexample.Set{{
		Inputs:          map[string]typesys.Value{"id": typesys.Str(tag)},
		Outputs:         map[string]typesys.Value{"out": typesys.Str("v-" + tag)},
		InputPartitions: map[string]string{"id": "Accession"},
	}}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// feedFixture serves a leader store's feed over real HTTP and returns a
// follower wired to it.
func feedFixture(t *testing.T, leader, followerStore *store.Store) *Follower {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/wal", NewFeed(leader, nil))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &Follower{
		Leader: srv.URL,
		Store:  followerStore,
		Client: srv.Client(),
		Wait:   50 * time.Millisecond,
	}
}

func assertMirrored(t *testing.T, leader, follower *store.Store) {
	t.Helper()
	if follower.Seq() != leader.Seq() {
		t.Fatalf("follower seq %d, leader seq %d", follower.Seq(), leader.Seq())
	}
	lids, fids := leader.IDs(), follower.IDs()
	if len(lids) != len(fids) {
		t.Fatalf("follower holds %d modules, leader %d", len(fids), len(lids))
	}
	for i, id := range lids {
		if fids[i] != id {
			t.Fatalf("module %d: %q vs %q", i, fids[i], id)
		}
		lh, _ := leader.Hash(id)
		fh, _ := follower.Hash(id)
		if lh != fh {
			t.Fatalf("module %s hash mismatch", id)
		}
		lv, _ := leader.Version(id)
		fv, _ := follower.Version(id)
		if lv != fv {
			t.Fatalf("module %s version %d vs %d", id, fv, lv)
		}
	}
}

func TestFeedFollowerReplicates(t *testing.T) {
	leader := openStore(t, "")
	followerStore := openStore(t, "")
	f := feedFixture(t, leader, followerStore)

	for _, id := range []string{"a", "b", "c"} {
		if _, _, err := leader.Put(id, feedSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.TailOnce(context.Background(), f.Client); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, leader, followerStore)
	if st := f.Status(); st.Lag != 0 || st.Applied != 3 {
		t.Errorf("status after catch-up: %+v", st)
	}

	// Update + delete flow through the same rounds.
	if _, _, err := leader.Put("a", feedSet("a2")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := f.TailOnce(context.Background(), f.Client); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, leader, followerStore)

	// At the head, a round answers 204 and applies nothing.
	before := f.Status().Applied
	if err := f.TailOnce(context.Background(), f.Client); err != nil {
		t.Fatal(err)
	}
	if f.Status().Applied != before {
		t.Error("quiet round applied records")
	}
}

// TestFeedFollowerMirrorsConcurrentWriters: a follower catching up on
// the history of 8 concurrent writers over the batched feed, with
// deflate negotiated, mirrors the leader exactly, and the feed really
// compressed what it sent.
func TestFeedFollowerMirrorsConcurrentWriters(t *testing.T) {
	leader := openStore(t, "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for k := 0; k < 8; k++ {
					id := fmt.Sprintf("w%d-%d", w, k)
					if _, _, err := leader.Put(id, feedSet(fmt.Sprintf("%s-r%d", id, r))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	met := NewMetrics(telemetry.NewRegistry())
	srv := httptest.NewServer(NewFeed(leader, met))
	defer srv.Close()
	mirror := openStore(t, "")
	f := &Follower{Leader: srv.URL, Store: mirror, Client: srv.Client(), Wait: 50 * time.Millisecond}
	for round := 0; mirror.Seq() < leader.Seq(); round++ {
		if round > 100 {
			t.Fatalf("follower stuck at seq %d of %d", mirror.Seq(), leader.Seq())
		}
		if err := f.TailOnce(context.Background(), f.Client); err != nil {
			t.Fatal(err)
		}
	}
	assertMirrored(t, leader, mirror)
	if c, u := met.WalCompressedBytes.Value(), met.WalUncompressedBytes.Value(); c == 0 || c >= u {
		t.Errorf("deflate never engaged: %d compressed bytes for %d frame bytes", c, u)
	}
}

func TestFeedLongPollWakesOnWrite(t *testing.T) {
	leader := openStore(t, "")
	followerStore := openStore(t, "")
	f := feedFixture(t, leader, followerStore)
	f.Wait = 5 * time.Second

	done := make(chan error, 1)
	go func() { done <- f.TailOnce(context.Background(), f.Client) }()
	time.Sleep(50 * time.Millisecond) // let the poll park
	if _, _, err := leader.Put("late", feedSet("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("parked poll not woken by a leader write")
	}
	assertMirrored(t, leader, followerStore)
}

func TestFeedDrainReleasesWaiters(t *testing.T) {
	leader := openStore(t, "")
	feed := NewFeed(leader, nil)
	srv := httptest.NewServer(feed)
	defer srv.Close()

	start := time.Now()
	done := make(chan int, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "?from=0&wait=20s")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond)
	feed.BeginDrain()
	select {
	case code := <-done:
		if code != http.StatusNoContent {
			t.Fatalf("drained waiter answered %d, want 204", code)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("drain did not release the parked waiter")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drained waiter held for %v", elapsed)
	}
	// New waiters during drain answer immediately too.
	resp, err := srv.Client().Get(srv.URL + "?from=0&wait=20s")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-drain waiter answered %d, want 204", resp.StatusCode)
	}
}

// rawWire is a follower transport that turns the feed back into its
// pre-batching wire shape: it drops the follower's Accept-Encoding, so
// the feed answers plain frames, and adds limit=1, so every answer
// carries one record. It counts round trips, and responses that arrived
// encoded anyway, so a test can prove the raw mode really ran.
type rawWire struct {
	base    http.RoundTripper
	trips   atomic.Int64
	encoded atomic.Int64
}

func (w *rawWire) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Del("Accept-Encoding")
	q := req.URL.Query()
	q.Set("limit", "1")
	req.URL.RawQuery = q.Encode()
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	w.trips.Add(1)
	if resp.Header.Get("Content-Encoding") != "" || resp.Uncompressed {
		w.encoded.Add(1)
	}
	return resp, nil
}

// rawClient returns a client that tails through a rawWire over base.
func rawClient(base *http.Client) (*http.Client, *rawWire) {
	w := &rawWire{base: base.Transport}
	return &http.Client{Transport: w, Timeout: base.Timeout}, w
}

// TestFollowerKilledMidTailResumes is the HTTP half of the torn-tail
// drill: a follower dies mid-stream losing its WAL tail, reopens, and
// must resume from its recovered sequence over the wire — the lost
// records are re-fetched, nothing already held is re-applied, and no
// gap is accepted. Runs in both wire modes: raw per-record frames
// through rawWire and the batched, compressed feed (where the five
// records land in one ApplyReplicatedBatch and the torn tail cuts
// inside that batch).
func TestFollowerKilledMidTailResumes(t *testing.T) {
	for _, mode := range []struct {
		name string
		raw  bool
	}{{"batched", false}, {"raw", true}} {
		t.Run(mode.name, func(t *testing.T) {
			leader := openStore(t, "")
			fdir := t.TempDir()
			followerStore := openStore(t, fdir)
			f := feedFixture(t, leader, followerStore)
			var wire *rawWire
			if mode.raw {
				f.Client, wire = rawClient(f.Client)
			}

			for _, id := range []string{"a", "b", "c", "d", "e"} {
				if _, _, err := leader.Put(id, feedSet(id)); err != nil {
					t.Fatal(err)
				}
			}
			for followerStore.Seq() != leader.Seq() {
				if err := f.TailOnce(context.Background(), f.Client); err != nil {
					t.Fatal(err)
				}
			}
			assertMirrored(t, leader, followerStore)
			if wire != nil {
				if n := wire.trips.Load(); n < 5 {
					t.Fatalf("raw tail took %d round trips for 5 records, want one per record", n)
				}
				if n := wire.encoded.Load(); n != 0 {
					t.Fatalf("%d raw-tail responses arrived encoded", n)
				}
			}

			// Kill: close the store and tear its WAL mid-frame.
			if err := followerStore.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(fdir, "wal.log")
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(walPath, fi.Size()-5); err != nil {
				t.Fatal(err)
			}

			reopened := openStore(t, fdir)
			if got := reopened.Seq(); got != 4 {
				t.Fatalf("recovered follower seq %d, want 4", got)
			}
			resumed := &Follower{Leader: f.Leader, Store: reopened, Client: f.Client, Wait: f.Wait}
			if err := resumed.TailOnce(context.Background(), resumed.Client); err != nil {
				t.Fatal(err)
			}
			assertMirrored(t, leader, reopened)
			if st := resumed.Status(); st.Applied != 1 || st.Resets != 0 {
				t.Fatalf("resume applied %d records with %d resets, want exactly the lost record and no reset", st.Applied, st.Resets)
			}
		})
	}
}

// TestFeedCompressionNegotiation: a follower offering deflate gets a
// compressed body whose inflated frames carry the same CRC-verified
// records as the raw wire; a client that does not offer it gets plain
// frames and no Content-Encoding.
func TestFeedCompressionNegotiation(t *testing.T) {
	leader := openStore(t, "")
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, _, err := leader.Put(id, feedSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewFeed(leader, nil))
	defer srv.Close()

	get := func(acceptDeflate bool) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"?from=0", nil)
		if err != nil {
			t.Fatal(err)
		}
		if acceptDeflate {
			req.Header.Set("Accept-Encoding", "deflate")
		} else {
			req.Header.Set("Accept-Encoding", "identity")
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	rawResp, rawBody := get(false)
	if enc := rawResp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("raw answer has Content-Encoding %q", enc)
	}
	rawRecs, err := DecodeFrames(rawBody)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawRecs) != 4 {
		t.Fatalf("raw answer carried %d records, want 4", len(rawRecs))
	}

	zResp, zBody := get(true)
	if enc := zResp.Header.Get("Content-Encoding"); enc != "deflate" {
		t.Fatalf("negotiated answer has Content-Encoding %q, want deflate", enc)
	}
	if len(zBody) >= len(rawBody) {
		t.Fatalf("compressed body (%d bytes) not smaller than raw (%d bytes)", len(zBody), len(rawBody))
	}
	fr := flate.NewReader(bytes.NewReader(zBody))
	inflated, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	// The CRC-over-uncompressed rule: the inflated stream is byte-for-
	// byte the raw frame stream, checksums included.
	if !bytes.Equal(inflated, rawBody) {
		t.Fatal("inflated frame stream differs from the raw wire")
	}
	zRecs, err := DecodeFrames(inflated)
	if err != nil {
		t.Fatal(err)
	}
	if len(zRecs) != len(rawRecs) {
		t.Fatalf("compressed answer carried %d records, want %d", len(zRecs), len(rawRecs))
	}
}

// TestFeedBatchWindowCoalesces: writes committed while an answer is
// open ride the same response — the feed's batch window turns a burst
// into one round trip.
func TestFeedBatchWindowCoalesces(t *testing.T) {
	leader := openStore(t, "")
	feed := NewFeed(leader, nil)
	feed.BatchWindow = 500 * time.Millisecond
	srv := httptest.NewServer(feed)
	defer srv.Close()

	type answer struct {
		recs []store.Record
		err  error
	}
	done := make(chan answer, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "?from=0&wait=5s")
		if err != nil {
			done <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		recs, err := DecodeFrameStream(resp.Body)
		done <- answer{recs: recs, err: err}
	}()

	// First write wakes the parked poll; the rest land inside its batch
	// window.
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		if _, _, err := leader.Put(id, feedSet(id)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	select {
	case ans := <-done:
		if ans.err != nil {
			t.Fatal(ans.err)
		}
		if len(ans.recs) != 4 {
			t.Fatalf("batched answer carried %d records, want all 4", len(ans.recs))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batched answer never arrived")
	}
}

// TestFollowerResetOnDivergence: a leader restarting from a recovered
// sequence (its window no longer covers the follower's cursor, or the
// follower is ahead) must push a full-state reset, not a gap.
func TestFollowerResetOnDivergence(t *testing.T) {
	ldir := t.TempDir()
	leader := openStore(t, ldir)
	for _, id := range []string{"a", "b", "c"} {
		if _, _, err := leader.Put(id, feedSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openStore(t, ldir) // replication window starts at seq 3
	followerStore := openStore(t, "")
	f := feedFixture(t, reopened, followerStore)
	if err := f.TailOnce(context.Background(), f.Client); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, reopened, followerStore)
	if st := f.Status(); st.Resets != 1 {
		t.Fatalf("follower performed %d resets, want 1", st.Resets)
	}
	// Incremental tailing resumes after the reset.
	if _, _, err := reopened.Put("d", feedSet("d")); err != nil {
		t.Fatal(err)
	}
	if err := f.TailOnce(context.Background(), f.Client); err != nil {
		t.Fatal(err)
	}
	assertMirrored(t, reopened, followerStore)
	if st := f.Status(); st.Resets != 1 || st.Applied != 1 {
		t.Fatalf("post-reset round: %+v", f.Status())
	}
}

// TestFollowerRunLoop drives the real Run loop end to end: writes land
// on the follower without manual rounds, and cancellation stops it.
func TestFollowerRunLoop(t *testing.T) {
	leader := openStore(t, "")
	followerStore := openStore(t, "")
	f := feedFixture(t, leader, followerStore)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	for _, id := range []string{"a", "b"} {
		if _, _, err := leader.Put(id, feedSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for followerStore.Seq() != leader.Seq() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, leader at %d", followerStore.Seq(), leader.Seq())
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertMirrored(t, leader, followerStore)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

// BenchmarkReplication measures a fresh follower catching up on 512
// leader records. raw is the pre-batching wire shape through rawWire, one
// plain frame per round trip; batched is the shipping path, the feed's
// default limit with negotiated deflate, so the catch-up is one
// compressed response.
func BenchmarkReplication(b *testing.B) {
	leader, err := store.Open("", store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer leader.Close()
	items := make([]store.PutItem, 512)
	for i := range items {
		id := fmt.Sprintf("repl-%d", i)
		items[i] = store.PutItem{ID: id, Examples: feedSet(id)}
	}
	results, err := leader.PutBatch(items)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	srv := httptest.NewServer(NewFeed(leader, nil))
	defer srv.Close()
	raw, _ := rawClient(srv.Client())
	run := func(client *http.Client) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mirror, err := store.Open("", store.Options{})
				if err != nil {
					b.Fatal(err)
				}
				f := &Follower{Leader: srv.URL, Store: mirror, Wait: 100 * time.Millisecond}
				for mirror.Seq() < leader.Seq() {
					if err := f.TailOnce(context.Background(), client); err != nil {
						mirror.Close()
						b.Fatal(err)
					}
				}
				n := mirror.Len()
				mirror.Close()
				if n != leader.Len() {
					b.Fatal("follower did not catch up")
				}
			}
		}
	}
	b.Run("raw", run(raw))
	b.Run("batched", run(srv.Client()))
}
