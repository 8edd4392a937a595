package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// replSet builds a tiny distinct example set per tag so consecutive puts
// are content changes, not hash no-ops.
func replSet(tag string) dataexample.Set {
	return dataexample.Set{{
		Inputs:          map[string]typesys.Value{"id": typesys.Str(tag)},
		Outputs:         map[string]typesys.Value{"out": typesys.Str("v-" + tag)},
		InputPartitions: map[string]string{"id": "Accession"},
	}}
}

// drain pulls every pending record from leader into follower, asserting
// the incremental path (no reset) is taken.
func drain(t *testing.T, leader, follower *Store) (applied, skipped int) {
	t.Helper()
	recs, next, reset := leader.TailSince(follower.Seq(), 0)
	if reset {
		t.Fatalf("expected incremental delta from cursor %d, got reset", follower.Seq())
	}
	a, sk, err := follower.ApplyReplicatedBatch(recs)
	if err != nil {
		t.Fatalf("ApplyReplicatedBatch: %v", err)
	}
	if follower.Seq() != next {
		t.Fatalf("follower seq %d, want next cursor %d", follower.Seq(), next)
	}
	return a, sk
}

// assertMirrors checks the follower holds exactly the leader's state:
// same module set, same hashes, same versions, same sequence.
func assertMirrors(t *testing.T, leader, follower *Store) {
	t.Helper()
	if got, want := follower.Seq(), leader.Seq(); got != want {
		t.Fatalf("follower seq %d, leader seq %d", got, want)
	}
	lids, fids := leader.IDs(), follower.IDs()
	if len(lids) != len(fids) {
		t.Fatalf("follower has %d modules, leader %d", len(fids), len(lids))
	}
	for i, id := range lids {
		if fids[i] != id {
			t.Fatalf("module %d: follower %q, leader %q", i, fids[i], id)
		}
		lh, _ := leader.Hash(id)
		fh, _ := follower.Hash(id)
		if lh != fh {
			t.Fatalf("module %s: follower hash %s, leader %s", id, fh, lh)
		}
		lv, _ := leader.Version(id)
		fv, _ := follower.Version(id)
		if lv != fv {
			t.Fatalf("module %s: follower version %d, leader %d", id, fv, lv)
		}
	}
}

func TestReplicationTailAndApply(t *testing.T) {
	leader := mustOpen(t, "")
	follower := mustOpen(t, "")

	for _, id := range []string{"a", "b", "c"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	applied, skipped := drain(t, leader, follower)
	if applied != 3 || skipped != 0 {
		t.Fatalf("applied %d skipped %d, want 3/0", applied, skipped)
	}
	assertMirrors(t, leader, follower)

	// Overwrite + delete propagate, versions included.
	if _, _, err := leader.Put("a", replSet("a2")); err != nil {
		t.Fatal(err)
	}
	if err := leader.Delete("b"); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)
	assertMirrors(t, leader, follower)
	if v, _ := follower.Version("a"); v != 2 {
		t.Fatalf("follower version of a = %d, want 2", v)
	}
	if _, ok := follower.Hash("b"); ok {
		t.Fatal("deleted module b still present on follower")
	}
}

func TestApplyReplicatedDuplicatesAndGaps(t *testing.T) {
	leader := mustOpen(t, "")
	follower := mustOpen(t, "")
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, _ := leader.TailSince(0, 0)

	// A retried delivery overlaps the already-applied prefix: duplicates
	// are counted, never re-applied.
	if _, _, err := follower.ApplyReplicatedBatch(recs[:3]); err != nil {
		t.Fatal(err)
	}
	applied, skipped, err := follower.ApplyReplicatedBatch(recs) // full batch again
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || skipped != 3 {
		t.Fatalf("applied %d skipped %d, want 1/3", applied, skipped)
	}
	if v, _ := follower.Version("a"); v != 1 {
		t.Fatalf("duplicate delivery bumped version of a to %d", v)
	}

	// A gap fails the batch outright.
	if _, _, err := leader.Put("e", replSet("e")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.Put("f", replSet("f")); err != nil {
		t.Fatal(err)
	}
	tail, _, _ := leader.TailSince(follower.Seq(), 0)
	gap := tail[1:] // skip the contiguous next record
	if _, _, err := follower.ApplyReplicatedBatch(gap); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap batch: err = %v, want replication gap", err)
	}
	if follower.Seq() != 4 {
		t.Fatalf("gap batch advanced follower seq to %d", follower.Seq())
	}
}

// TestApplyReplicatedCompactsAtGap: a batch whose validated prefix
// crosses CompactEvery compacts even when a gap stops it — the follower
// runs the leader's compaction check on whatever it published.
func TestApplyReplicatedCompactsAtGap(t *testing.T) {
	leader := mustOpen(t, "")
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, _ := leader.TailSince(0, 0)

	reg := telemetry.NewRegistry()
	follower, err := Open(t.TempDir(), Options{CompactEvery: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	applied, _, err := follower.ApplyReplicatedBatch([]Record{recs[0], recs[1], recs[3]})
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("err = %v, want replication gap", err)
	}
	if applied != 2 {
		t.Fatalf("applied %d, want 2", applied)
	}
	compactions := reg.Counter("dexa_store_compactions_total", "").Value()
	if st := follower.Stats(); compactions != 1 || st.SnapshotSeq != 2 || st.WALRecords != 0 {
		t.Fatalf("compactions %d, snapshot seq %d, wal records %d; want 1, 2, 0", compactions, st.SnapshotSeq, st.WALRecords)
	}
}

// TestFollowerReadsDuringApply: a follower serves reads while it
// applies replicated records; every install takes the shard lock, so
// under -race this is a check that replicated apply never writes the
// index behind a reader's back.
func TestFollowerReadsDuringApply(t *testing.T) {
	leader := mustOpen(t, "")
	follower := mustOpen(t, "")
	for i := 0; i < 100; i++ {
		if _, _, err := leader.Put(fmt.Sprintf("m%d", i%5), replSet(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, _ := leader.TailSince(0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			follower.Get(fmt.Sprintf("m%d", i%5))
		}
	}()
	for i := range recs {
		if _, _, err := follower.ApplyReplicatedBatch(recs[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	assertMirrors(t, leader, follower)
}

func TestReplicationResetWhenCursorOutOfWindow(t *testing.T) {
	dir := t.TempDir()
	leader := mustOpen(t, dir)
	for _, id := range []string{"a", "b", "c"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened leader starts its window at the recovered sequence: a
	// fresh follower (cursor 0) must resynchronise via reset.
	leader = mustOpen(t, dir)
	follower := mustOpen(t, "")
	recs, next, reset := leader.TailSince(follower.Seq(), 0)
	if !reset {
		t.Fatal("expected reset stream for cursor below the window")
	}
	if err := follower.ResetReplicated(recs, next); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, leader, follower)

	// Incremental tailing picks up where the reset left off.
	if _, _, err := leader.Put("d", replSet("d")); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)
	assertMirrors(t, leader, follower)
}

// TestResetReplicatedRefusesBadStreamWhole: a reset stream carrying a
// non-put record is refused before the follower's state is touched —
// it keeps every module and its sequence instead of a half-replaced
// catalog.
func TestResetReplicatedRefusesBadStreamWhole(t *testing.T) {
	leader := mustOpen(t, "")
	follower := mustOpen(t, "")
	for _, id := range []string{"a", "b", "c"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, leader, follower)
	bad := []Record{
		{Seq: 1, Op: OpPut, Module: "x", Hash: "h", Version: 1, Examples: replSet("x")},
		{Seq: 2, Op: OpDelete, Module: "y"},
	}
	if err := follower.ResetReplicated(bad, 9); err == nil {
		t.Fatal("a reset stream with a delete was accepted")
	}
	assertMirrors(t, leader, follower)
}

func TestReplicationWindowEviction(t *testing.T) {
	leader := mustOpen(t, "")
	leader.repl.window = 8
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Eviction raised the low-water mark: an old cursor resets, a recent
	// one still gets its delta.
	if _, _, reset := leader.TailSince(0, 0); !reset {
		t.Fatal("cursor 0 should be out of the evicted window")
	}
	recs, next, reset := leader.TailSince(9, 0)
	if reset || len(recs) != 1 || recs[0].Seq != 10 || next != 10 {
		t.Fatalf("recent cursor: recs=%d reset=%v next=%d", len(recs), reset, next)
	}
}

// TestTailSinceInWindowWithoutWriterLock: with the writer lock held, as
// a commit in flight holds it, a tail inside the replication window —
// behind the head or caught up — still returns, while a cursor before
// the window, which needs the consistent cut of a reset stream, waits
// for the lock and then gets its reset.
func TestTailSinceInWindowWithoutWriterLock(t *testing.T) {
	leader := mustOpen(t, "")
	leader.repl.window = 4
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	type tailed struct {
		recs  []Record
		next  uint64
		reset bool
	}
	tail := func(cursor uint64) <-chan tailed {
		ch := make(chan tailed, 1)
		go func() {
			recs, next, reset := leader.TailSince(cursor, 0)
			ch <- tailed{recs, next, reset}
		}()
		return ch
	}
	leader.logMu.Lock()
	locked := true
	defer func() {
		if locked {
			leader.logMu.Unlock()
		}
	}()
	for _, c := range []struct {
		cursor, next uint64
		recs         int
	}{{4, 6, 2}, {6, 6, 0}} {
		select {
		case got := <-tail(c.cursor):
			if got.reset || len(got.recs) != c.recs || got.next != c.next {
				t.Fatalf("cursor %d: %d records, next %d, reset %v; want %d records, next %d",
					c.cursor, len(got.recs), got.next, got.reset, c.recs, c.next)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("in-window TailSince(%d) waited for the writer lock", c.cursor)
		}
	}
	reset := tail(0)
	select {
	case <-reset:
		t.Fatal("a reset stream was cut without the writer lock")
	case <-time.After(20 * time.Millisecond):
	}
	leader.logMu.Unlock()
	locked = false
	if got := <-reset; !got.reset || len(got.recs) != 6 || got.next != 6 {
		t.Fatalf("cursor 0: %d records, next %d, reset %v; want a 6-record reset at 6", len(got.recs), got.next, got.reset)
	}
}

func TestReplicationChangedBroadcast(t *testing.T) {
	leader := mustOpen(t, "")
	ch := leader.ReplicationChanged(0)
	select {
	case <-ch:
		t.Fatal("Changed(0) closed before any mutation")
	default:
	}
	if _, _, err := leader.Put("a", replSet("a")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("Changed(0) not woken by a put")
	}
	// A cursor already behind gets an immediately-closed channel.
	select {
	case <-leader.ReplicationChanged(0):
	default:
		t.Fatal("Changed(0) with pending records should be closed already")
	}
}

// TestFollowerTornTailResume is the mid-stream crash drill: a follower
// tailing a leader loses its own unsynced WAL tail, reopens, and must
// resume from its last contiguous sequence — re-fetching the lost
// records, accepting no gap, and re-applying nothing it already holds.
func TestFollowerTornTailResume(t *testing.T) {
	leader := mustOpen(t, "")
	fdir := t.TempDir()
	follower := mustOpen(t, fdir)

	for _, id := range []string{"a", "b", "c", "d", "e"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, leader, follower)
	assertMirrors(t, leader, follower)

	// Crash the follower mid-stream: cut its WAL inside the final frame,
	// simulating a record half-written when the process died.
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(fdir, walFileName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	follower = mustOpen(t, fdir)
	if !follower.Stats().TailTruncated {
		t.Fatal("reopened follower did not report a truncated tail")
	}
	if got := follower.Seq(); got != 4 {
		t.Fatalf("recovered follower seq %d, want 4 (lost exactly the torn record)", got)
	}

	// Resume: the leader still has seq 5 in its window, so the follower
	// re-fetches exactly the lost suffix — no reset, no duplicates.
	applied, skipped := drain(t, leader, follower)
	if applied != 1 || skipped != 0 {
		t.Fatalf("resume applied %d skipped %d, want 1/0", applied, skipped)
	}
	assertMirrors(t, leader, follower)

	// And the repaired follower keeps tailing new writes.
	if _, _, err := leader.Put("f", replSet("f")); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)
	assertMirrors(t, leader, follower)
}

// TestLeaderTornTailForcesReset covers the reverse crash: the LEADER
// loses its unsynced tail and restarts behind the follower. The
// divergent follower must not absorb a gap or silently keep records the
// leader no longer has — the feed answers with a reset stream.
func TestLeaderTornTailForcesReset(t *testing.T) {
	ldir := t.TempDir()
	leader := mustOpen(t, ldir)
	follower := mustOpen(t, "")

	for _, id := range []string{"a", "b", "c"} {
		if _, _, err := leader.Put(id, replSet(id)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, leader, follower)

	// Leader crashes losing its final record (seq 3).
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(ldir, walFileName)
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	leader = mustOpen(t, ldir)
	if got := leader.Seq(); got != 2 {
		t.Fatalf("recovered leader seq %d, want 2", got)
	}

	// The follower (at seq 3) is ahead of the leader's head: divergence.
	recs, next, reset := leader.TailSince(follower.Seq(), 0)
	if !reset {
		t.Fatal("a follower ahead of the leader must be reset, not tailed")
	}
	if err := follower.ResetReplicated(recs, next); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, leader, follower)

	// New leader history replicates cleanly after the rewind.
	if _, _, err := leader.Put("d", replSet("d")); err != nil {
		t.Fatal(err)
	}
	drain(t, leader, follower)
	assertMirrors(t, leader, follower)
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}
