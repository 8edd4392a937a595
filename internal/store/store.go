// Package store implements the durable, versioned example store: the
// persistence layer that keeps generated data-example annotations alive
// across process restarts so they can be browsed, served, and used for
// substitute search without regenerating the catalog (the paper's
// annotations are only useful if they outlive the run that produced
// them).
//
// Architecture:
//
//   - A sharded in-memory index holds the live record per module —
//     example set, content hash, per-module version, global sequence —
//     behind per-shard RWMutexes, so concurrent readers never contend on
//     a single lock.
//   - Every mutation is first appended to a checksummed write-ahead log
//     (wal.go); recovery replays it and truncates torn tails, so a crash
//     loses at most the records after the last sync.
//   - Snapshot() compacts: it writes the full state to an atomic
//     snapshot file (snapshot.go) and truncates the WAL. Opening a store
//     is "load snapshot, replay WAL".
//   - Example sets are content-addressed (hash.go): a Put whose set
//     hashes identically to the stored one is a metadata-free no-op,
//     which makes re-annotation sweeps cheap and gives the serving layer
//     free ETags.
//
// Concurrency: any number of readers may call Get/GetVersioned/Hash/
// Version/IDs/Len/Stats concurrently with writers. Writers (Put/
// PutBatch/Delete/Snapshot) are serialized internally on the log mutex,
// so WAL order, sequence numbers and the index always agree. Callers
// must treat returned example sets as read-only; the store hands out the
// same backing slice to every reader.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dexa/internal/dataexample"
	"dexa/internal/longpoll"
	"dexa/internal/telemetry"
)

const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"

	numShards = 16
)

// Options tunes a store.
type Options struct {
	// CompactEvery triggers an automatic snapshot + WAL truncation after
	// this many WAL appends. 0 disables auto-compaction (Snapshot can
	// still be called explicitly).
	CompactEvery int
	// SyncOnPut fsyncs the WAL after every commit batch, and mutations
	// do not return until their batch is on stable storage. Durable but
	// slower than the default, which syncs on Snapshot and Close and
	// accepts losing unsynced tail records on a hard crash. Group commit
	// amortises the fsync across every caller in the batch.
	SyncOnPut bool
	// Metrics, when set, receives the store's operational metrics:
	// dexa_store_wal_{appends,syncs}_total, dexa_store_wal_bytes,
	// dexa_store_compactions_total, dexa_store_snapshot_bytes, and the
	// put/get/delete counters the Stats struct also reports. A nil
	// registry records nothing at zero cost.
	Metrics *telemetry.Registry
}

// storeMetrics holds the store's telemetry handles. Every field is a
// nil-safe no-op when Options.Metrics is nil, so the hot paths record
// unconditionally.
type storeMetrics struct {
	walAppends       *telemetry.Counter
	walSyncs         *telemetry.Counter
	walBytes         *telemetry.Gauge
	compactions      *telemetry.Counter
	snapshotBytes    *telemetry.Gauge
	commitBatchSize  *telemetry.Histogram
	groupCommitWaits *telemetry.Counter
}

// commitBatchBuckets resolve the histogram over the committer's useful
// range: 1 (no concurrency to amortise) up to maxCommitRequests.
var commitBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func newStoreMetrics(r *telemetry.Registry) storeMetrics {
	return storeMetrics{
		walAppends:       r.Counter("dexa_store_wal_appends_total", "Records appended to the write-ahead log."),
		walSyncs:         r.Counter("dexa_store_wal_syncs_total", "WAL fsyncs."),
		walBytes:         r.Gauge("dexa_store_wal_bytes", "Current size of the write-ahead log in bytes."),
		compactions:      r.Counter("dexa_store_compactions_total", "Snapshot compactions (WAL truncations)."),
		snapshotBytes:    r.Gauge("dexa_store_snapshot_bytes", "Size of the last written snapshot file in bytes."),
		commitBatchSize:  r.Histogram("dexa_store_commit_batch_size", "Mutation records committed per group-commit batch.", commitBatchBuckets),
		groupCommitWaits: r.Counter("dexa_store_group_commit_waits_total", "Mutations that parked behind another caller's commit and shared its batch."),
	}
}

// record is the live index entry for one module. keyed is the
// canonicalised, symbol-interned view of set, built exactly once — at
// Put, WAL replay or snapshot hydration — so matching sweeps read
// pre-interned columns and never re-canonicalise stored examples.
type record struct {
	set     dataexample.Set
	keyed   *dataexample.KeyedSet
	hash    string
	version uint64
	seq     uint64
}

type shard struct {
	mu   sync.RWMutex
	recs map[string]*record
}

// Store is the persistent example store. Open one with Open; a store
// opened with an empty directory is memory-only (no WAL, no snapshot) —
// useful for tests and ephemeral serving.
type Store struct {
	dir  string
	opts Options

	shards [numShards]shard

	// symtab interns every stored set's canonical keys into one shared
	// table, so keyed sets from different modules compare by symbol ID.
	// Interning is concurrency-safe; see dataexample.SymbolTable.
	symtab *dataexample.SymbolTable

	// logMu serializes mutations: WAL append, sequence assignment, index
	// update, snapshot, and compaction all happen under it. Most writers
	// never take it directly — they enqueue on the committer (commit.go),
	// which holds it once per batch.
	logMu      sync.Mutex
	wal        *walWriter // nil in memory-only mode
	seq        uint64     // last assigned global sequence
	snapSeq    uint64     // sequence captured by the last snapshot
	appends    int        // WAL records since the last snapshot
	lastSynced uint64     // highest sequence known durable on disk
	unsynced   int        // WAL records appended since the last sync
	closed     bool

	// The group-commit queue (commit.go). commitMu guards the
	// closed-flag/send pair so Close never closes the channel under a
	// sender.
	commitMu     sync.RWMutex
	commitCh     chan *commitReq
	commitDone   chan struct{}
	commitClosed bool

	recovered int64 // WAL records replayed at Open
	truncated bool  // Open found and cut a torn WAL tail

	gets, hits, puts, putNoops, deletes atomic.Uint64

	met storeMetrics

	// repl is the in-memory replication buffer: a bounded window of
	// recent mutation records that followers tail over the WAL feed. See
	// repl.go.
	repl repl

	nonce string
}

// Open opens (or creates) a store rooted at dir. With dir == "" the
// store is memory-only: fully functional, nothing persisted.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, symtab: dataexample.NewSymbolTable(), met: newStoreMetrics(opts.Metrics), nonce: longpoll.Nonce()}
	for i := range s.shards {
		s.shards[i].recs = make(map[string]*record)
	}
	s.registerFuncMetrics(opts.Metrics)
	if dir == "" {
		s.repl.init(0)
		s.startCommitter()
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}

	// Stream the snapshot: each record is decoded, keyed and interned in
	// one pass, so startup never materialises the whole document and the
	// canonicalisation work is already done when serving begins.
	snapSeq, err := loadSnapshot(filepath.Join(dir, snapshotFileName), func(rec *snapshotRecord) {
		s.install(Record{Seq: rec.Seq, Op: OpPut, Module: rec.Module, Hash: rec.Hash, Version: rec.Version, Examples: rec.Examples}, nil)
	})
	if err != nil {
		return nil, err
	}
	s.seq = snapSeq
	s.snapSeq = snapSeq

	// Replay the WAL record by record as it is read; a record that does
	// not decode marks the torn tail.
	s.wal, s.truncated, err = openLog(filepath.Join(dir, walFileName), walMagic, "wal", walBufferSize, func(payload []byte) error {
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			return ErrTornFrame // checksummed but undecodable
		}
		s.apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.recovered = s.wal.records
	s.appends = int(s.wal.records)
	// Everything recovered came off stable storage: the durable
	// baseline Stats reports as LastSyncedSeq.
	s.lastSynced = s.seq
	s.met.walBytes.Set(float64(s.wal.bytes))
	// Replication starts at the recovered sequence: followers whose
	// cursor predates this process's window resynchronise with a full
	// state reset rather than a record-by-record delta.
	s.repl.init(s.seq)
	s.startCommitter()
	return s, nil
}

// registerFuncMetrics exports the store's index counters through func
// collectors, so the numbers Stats() reports are also scrapeable without
// double bookkeeping on the hot paths.
func (s *Store) registerFuncMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("dexa_store_gets_total", "Store Get calls.", func() float64 { return float64(s.gets.Load()) })
	r.CounterFunc("dexa_store_get_hits_total", "Store Get calls that found a record.", func() float64 { return float64(s.hits.Load()) })
	r.CounterFunc("dexa_store_puts_total", "Store Put calls that changed content.", func() float64 { return float64(s.puts.Load()) })
	r.CounterFunc("dexa_store_put_noops_total", "Store Put calls elided by content hashing.", func() float64 { return float64(s.putNoops.Load()) })
	r.CounterFunc("dexa_store_deletes_total", "Store Delete calls that removed a record.", func() float64 { return float64(s.deletes.Load()) })
	r.GaugeFunc("dexa_store_modules", "Modules with a stored example set.", func() float64 { return float64(s.Len()) })
}

// apply folds one replayed WAL record into the index. Records apply in
// sequence order; stale duplicates (a WAL that survived a crash between
// snapshot rename and truncation) are ignored.
func (s *Store) apply(rec Record) {
	sh := s.shard(rec.Module)
	if old := sh.recs[rec.Module]; old != nil && rec.Seq <= old.seq {
		return
	}
	s.install(rec, nil)
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
}

// install is the one write into the index: every path that changes a
// module's stored state — the commit publish, a replicated apply, WAL
// replay, snapshot load and a replication reset — builds and places its
// record here. A put stores rec with its keyed set: the one the caller
// interned off the commit path, or, when keyed is nil, one interned here
// before the shard is locked. A version of 0 (records logged before
// versions were) continues the module's count. A delete removes the
// module; any other op changes nothing.
func (s *Store) install(rec Record, keyed *dataexample.KeyedSet) {
	if keyed == nil && rec.Op == OpPut {
		keyed = rec.Examples.KeyedInterned(s.symtab)
	}
	sh := s.shard(rec.Module)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch rec.Op {
	case OpPut:
		ver := rec.Version
		if ver == 0 {
			ver = 1
			if old := sh.recs[rec.Module]; old != nil {
				ver = old.version + 1
			}
		}
		sh.recs[rec.Module] = &record{set: rec.Examples, keyed: keyed, hash: rec.Hash, version: ver, seq: rec.Seq}
	case OpDelete:
		delete(sh.recs, rec.Module)
	}
}

func (s *Store) shard(id string) *shard {
	// FNV-1a over the module ID.
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &s.shards[h%numShards]
}

// Put stores the example set for a module, returning its content hash
// and whether anything changed. A set identical (by content hash) to the
// stored one is a no-op that touches neither the WAL nor the index. It
// is a one-item PutBatch.
func (s *Store) Put(id string, set dataexample.Set) (hash string, changed bool, err error) {
	res, err := s.PutBatch([]PutItem{{ID: id, Examples: set}})
	if err != nil {
		return "", false, err
	}
	return res[0].Hash, res[0].Changed, res[0].Err
}

// Delete removes a module's stored examples (a tombstone is logged so
// the deletion survives restart). Deleting an absent module is a no-op.
func (s *Store) Delete(id string) error {
	sh := s.shard(id)
	sh.mu.RLock()
	_, ok := sh.recs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil
	}
	var res PutResult
	if err := s.submit([]commitOp{{op: OpDelete, id: id, res: &res}}); err != nil {
		return err
	}
	return res.Err
}

// Get returns the stored example set and its content hash. The returned
// set is shared and must be treated as read-only.
func (s *Store) Get(id string) (dataexample.Set, string, bool) {
	set, hash, _, ok := s.GetVersioned(id)
	return set, hash, ok
}

// GetVersioned returns the stored example set, its content hash and its
// version, all from one record: a write landing between a Get and a
// Version call would pair one record's set and hash with the next
// record's version.
func (s *Store) GetVersioned(id string) (dataexample.Set, string, uint64, bool) {
	s.gets.Add(1)
	sh := s.shard(id)
	sh.mu.RLock()
	r, ok := sh.recs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, "", 0, false
	}
	s.hits.Add(1)
	return r.set, r.hash, r.version, true
}

// GetKeyed returns the stored example set in its keyed, symbol-interned
// form, together with the content hash. The KeyedSet was built when the
// record was written (Put, WAL replay or snapshot hydration) and is
// immutable: one pointer per stored content, shared by every reader, so
// matrix builds detect annotation changes by pointer inequality and
// never re-canonicalise. All stored sets intern into the store's single
// symbol table — two modules' keyed sets always share it.
func (s *Store) GetKeyed(id string) (*dataexample.KeyedSet, string, bool) {
	s.gets.Add(1)
	sh := s.shard(id)
	sh.mu.RLock()
	r, ok := sh.recs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, "", false
	}
	s.hits.Add(1)
	return r.keyed, r.hash, true
}

// Hash returns just the content hash — the cheap change-detection probe.
func (s *Store) Hash(id string) (string, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.recs[id]
	if !ok {
		return "", false
	}
	return r.hash, true
}

// Version returns how many times the module's stored set has changed.
func (s *Store) Version(id string) (uint64, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.recs[id]
	if !ok {
		return 0, false
	}
	return r.version, true
}

// IDs returns the stored module IDs, sorted.
func (s *Store) IDs() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.recs {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Len returns the number of stored modules.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.recs)
		sh.mu.RUnlock()
	}
	return n
}

// Stats is an operational snapshot of the store.
type Stats struct {
	Dir      string `json:"dir,omitempty"`
	Memory   bool   `json:"memory"`
	Modules  int    `json:"modules"`
	Examples int    `json:"examples"`
	// Symbols is the number of distinct canonical keys interned in the
	// store's shared symbol table.
	Symbols int `json:"symbols"`

	Seq         uint64 `json:"seq"`
	SnapshotSeq uint64 `json:"snapshotSeq"`
	WALRecords  int64  `json:"walRecords"`
	WALBytes    int64  `json:"walBytes"`
	// LastSyncedSeq is the highest sequence known to be on stable
	// storage; UnsyncedRecords is the length of the WAL tail that a
	// hard crash would lose (always 0 under SyncOnPut).
	LastSyncedSeq   uint64 `json:"lastSyncedSeq"`
	UnsyncedRecords int    `json:"unsyncedRecords"`

	Recovered     int64 `json:"recovered"`
	TailTruncated bool  `json:"tailTruncated"`

	Gets     uint64 `json:"gets"`
	Hits     uint64 `json:"hits"`
	Puts     uint64 `json:"puts"`
	PutNoops uint64 `json:"putNoops"`
	Deletes  uint64 `json:"deletes"`
}

// Stats reports counters and sizes. Safe to call concurrently with
// readers and writers.
func (s *Store) Stats() Stats {
	st := Stats{
		Dir:      s.dir,
		Memory:   s.dir == "",
		Symbols:  s.symtab.Len(),
		Gets:     s.gets.Load(),
		Hits:     s.hits.Load(),
		Puts:     s.puts.Load(),
		PutNoops: s.putNoops.Load(),
		Deletes:  s.deletes.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Modules += len(sh.recs)
		for _, r := range sh.recs {
			st.Examples += len(r.set)
		}
		sh.mu.RUnlock()
	}
	s.logMu.Lock()
	st.Seq = s.seq
	st.SnapshotSeq = s.snapSeq
	st.Recovered = s.recovered
	st.TailTruncated = s.truncated
	if s.wal != nil {
		st.WALRecords = s.wal.records
		st.WALBytes = s.wal.bytes
		st.LastSyncedSeq = s.lastSynced
		st.UnsyncedRecords = s.unsynced
	}
	s.logMu.Unlock()
	return st
}

// Snapshot compacts the store: it atomically writes the full state to
// the snapshot file and truncates the WAL. Readers and writers may run
// concurrently; the snapshot captures a consistent cut (it holds the
// writer lock, so no mutation can land between the WAL cut and the
// snapshot contents).
func (s *Store) Snapshot() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	if s.dir == "" {
		return nil
	}
	var recs []snapshotRecord
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, r := range sh.recs {
			recs = append(recs, snapshotRecord{Module: id, Hash: r.hash, Version: r.version, Seq: r.seq, Examples: r.set})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Module < recs[j].Module })
	doc := snapshotDoc{Version: snapshotVersion, Seq: s.seq, Records: recs}
	snapPath := filepath.Join(s.dir, snapshotFileName)
	if err := writeSnapshot(snapPath, doc); err != nil {
		return err
	}
	s.snapSeq = s.seq
	s.appends = 0
	if err := s.wal.reset(); err != nil {
		return err
	}
	// reset synced the truncated log, and the snapshot holds everything
	// else: the whole state is durable.
	s.lastSynced = s.seq
	s.unsynced = 0
	s.met.compactions.Inc()
	s.met.walBytes.Set(float64(s.wal.bytes))
	if fi, err := os.Stat(snapPath); err == nil {
		s.met.snapshotBytes.Set(float64(fi.Size()))
	}
	return nil
}

// Close drains the committer, flushes the WAL and releases the store.
// Mutations already enqueued commit before the store closes; further
// mutations fail. Reads keep working against the in-memory index.
func (s *Store) Close() error {
	// Stop accepting new commit requests, then wait for the committer
	// to finish everything already queued. commitMu orders this against
	// in-flight submits so the channel never closes under a sender.
	s.commitMu.Lock()
	wasClosed := s.commitClosed
	s.commitClosed = true
	s.commitMu.Unlock()
	if !wasClosed {
		close(s.commitCh)
		<-s.commitDone
	}

	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	return s.wal.close()
}
