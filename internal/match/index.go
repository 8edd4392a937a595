package match

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/longpoll"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/telemetry"
)

// CatalogIndex is the signature-level pruning index for catalog-scale
// matching. It precomputes, per module, the multiset of parameter
// fingerprints (structural type + semantic concept, per side) and an
// inverted index from fingerprint → posting bitset of modules carrying at
// least one such parameter. A substitute search intersects the postings
// of the target's parameters to find the mapping-feasible candidates and
// runs the expensive example comparison only on those; everything else is
// pruned without invoking a single module.
//
// Soundness: a candidate is pruned only when MapParameters provably
// cannot succeed, so pruned searches return byte-identical results to the
// exhaustive ones (a pruned candidate would have come back Incomparable,
// which never ranks and never skips). In ModeExact the feasibility test
// is in fact a complete decision procedure: the mapping constraint graph
// decomposes into complete bipartite blocks per fingerprint class, so
// Hall's condition reduces to per-class counting. In ModeRelaxed (where
// subsumption edges make the bipartite structure general) the test is a
// necessary-condition overapproximation and MapParameters re-verifies
// the survivors.
//
// Relaxed-mode subsumption is resolved through the ontology's bitset
// closure: a candidate input concept is compatible when it subsumes the
// target's, i.e. when it lies in {target} ∪ AncestorsView(target).
//
// Invalidation: the index snapshots module signatures at build time.
// Whenever a module's parameter signature changes (or a module is added
// or retired from the catalog), call Update/Remove — each rebuilds the
// postings under the write lock and bumps Generation, which serving-layer
// caches fold into their state keys. Example-set content changes do NOT
// touch this index (it never looks at examples); they invalidate the
// match-matrix and substitute caches through the store's content hashes.
//
// Concurrency: Feasibility queries take a read lock and may run
// concurrently with each other and with ontology reasoning; Update and
// Remove take the write lock.
type CatalogIndex struct {
	ont *ontology.Ontology

	mu   sync.RWMutex
	sigs map[string]*moduleSig // module ID -> signature snapshot
	// Dense numbering for the posting bitsets, rebuilt on every mutation.
	ids   []string       // sorted module IDs
	rank  map[string]int // module ID -> dense index
	words int            // bitset words per posting
	// One posting map per side, keyed by bare parameter fingerprint, so
	// queries never build a side-prefixed key string.
	inPostings  map[string][]uint64
	outPostings map[string][]uint64

	generation atomic.Uint64
	nonce      string
	builds     atomic.Uint64
	lastBuild  atomic.Int64 // nanoseconds of the last rebuild

	// buildSeconds is set by Instrument; nil-safe when never instrumented.
	buildSeconds *telemetry.Histogram
}

// paramClass is one fingerprint equivalence class of a module side.
type paramClass struct {
	strct    string // structural type, canonical string form
	concept  string // semantic concept ID ("" when unannotated)
	count    int    // parameters in this class
	required int    // non-optional members (meaningful for inputs)
}

// moduleSig is the per-module signature snapshot the index matches on.
type moduleSig struct {
	id          string
	numInputs   int
	numRequired int
	numOutputs  int
	inClasses   map[string]paramClass // fingerprint -> class
	outClasses  map[string]paramClass
	inStruct    map[string]int // struct string -> input count
	reqStruct   map[string]int // struct string -> required input count
	outStruct   map[string]int // struct string -> output count
}

func fingerprint(strct, concept string) string { return strct + "\x00" + concept }

func signatureOf(m *module.Module) *moduleSig {
	sig := &moduleSig{
		id:         m.ID,
		numInputs:  len(m.Inputs),
		numOutputs: len(m.Outputs),
		inClasses:  make(map[string]paramClass, len(m.Inputs)),
		outClasses: make(map[string]paramClass, len(m.Outputs)),
		inStruct:   make(map[string]int, len(m.Inputs)),
		reqStruct:  make(map[string]int, len(m.Inputs)),
		outStruct:  make(map[string]int, len(m.Outputs)),
	}
	for _, p := range m.Inputs {
		s := p.Struct.String()
		fp := fingerprint(s, p.Semantic)
		c := sig.inClasses[fp]
		c.strct, c.concept = s, p.Semantic
		c.count++
		if !p.Optional {
			c.required++
			sig.numRequired++
			sig.reqStruct[s]++
		}
		sig.inClasses[fp] = c
		sig.inStruct[s]++
	}
	for _, p := range m.Outputs {
		s := p.Struct.String()
		fp := fingerprint(s, p.Semantic)
		c := sig.outClasses[fp]
		c.strct, c.concept = s, p.Semantic
		c.count++
		sig.outClasses[fp] = c
		sig.outStruct[s]++
	}
	return sig
}

// NewCatalogIndex builds the index over the given modules' signatures.
func NewCatalogIndex(ont *ontology.Ontology, mods []*module.Module) *CatalogIndex {
	ix := &CatalogIndex{ont: ont, sigs: make(map[string]*moduleSig, len(mods)), nonce: longpoll.Nonce()}
	for _, m := range mods {
		ix.sigs[m.ID] = signatureOf(m)
	}
	ix.rebuildLocked()
	return ix
}

// Update adds or replaces the module's signature snapshot and rebuilds
// the postings. Call it whenever a module's parameter signature changes.
func (ix *CatalogIndex) Update(m *module.Module) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.sigs[m.ID] = signatureOf(m)
	ix.rebuildLocked()
}

// Remove drops a module from the index (no-op for unknown IDs).
func (ix *CatalogIndex) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.sigs[id]; !ok {
		return
	}
	delete(ix.sigs, id)
	ix.rebuildLocked()
}

// rebuildLocked recomputes the dense numbering and the inverted postings.
// Caller holds the write lock (or has exclusive access during New).
func (ix *CatalogIndex) rebuildLocked() {
	start := time.Now()
	n := len(ix.sigs)
	ix.ids = make([]string, 0, n)
	for id := range ix.sigs {
		ix.ids = append(ix.ids, id)
	}
	sort.Strings(ix.ids)
	ix.rank = make(map[string]int, n)
	for i, id := range ix.ids {
		ix.rank[id] = i
	}
	ix.words = (n + 63) / 64
	ix.inPostings = make(map[string][]uint64)
	ix.outPostings = make(map[string][]uint64)
	set := func(postings map[string][]uint64, fp string, i int) {
		bits, ok := postings[fp]
		if !ok {
			bits = make([]uint64, ix.words)
			postings[fp] = bits
		}
		bits[i/64] |= 1 << (i % 64)
	}
	for i, id := range ix.ids {
		sig := ix.sigs[id]
		for fp := range sig.inClasses {
			set(ix.inPostings, fp, i)
		}
		for fp := range sig.outClasses {
			set(ix.outPostings, fp, i)
		}
	}
	elapsed := time.Since(start)
	ix.lastBuild.Store(int64(elapsed))
	ix.builds.Add(1)
	ix.generation.Add(1)
	ix.buildSeconds.Observe(elapsed.Seconds())
}

// Generation returns a counter that increments on every rebuild; caches
// keyed on catalog state fold it into their keys. A nil index is at
// generation 0.
func (ix *CatalogIndex) Generation() uint64 {
	if ix == nil {
		return 0
	}
	return ix.generation.Load()
}

// Nonce is random per index: a generation names a state of this index
// only, so a validator built from it carries the nonce too. A nil index
// has none.
func (ix *CatalogIndex) Nonce() string {
	if ix == nil {
		return ""
	}
	return ix.nonce
}

// Len returns the number of indexed modules.
func (ix *CatalogIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.sigs)
}

// IDs returns the indexed module IDs, sorted.
func (ix *CatalogIndex) IDs() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, len(ix.ids))
	copy(out, ix.ids)
	return out
}

// Instrument exports the index's build telemetry on the registry:
// dexa_match_index_size, dexa_match_index_generation and
// dexa_match_index_builds_total as read-on-scrape collectors, plus the
// dexa_match_index_build_seconds histogram observed on every subsequent
// rebuild.
func (ix *CatalogIndex) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("dexa_match_index_size", "Modules in the catalog signature index.",
		func() float64 { return float64(ix.Len()) })
	r.GaugeFunc("dexa_match_index_generation", "Signature-index generation (bumps on every rebuild).",
		func() float64 { return float64(ix.Generation()) })
	r.CounterFunc("dexa_match_index_builds_total", "Signature-index builds and rebuilds.",
		func() float64 { return float64(ix.builds.Load()) })
	r.GaugeFunc("dexa_match_index_last_build_seconds", "Duration of the most recent index rebuild.",
		func() float64 { return time.Duration(ix.lastBuild.Load()).Seconds() })
	ix.mu.Lock()
	ix.buildSeconds = r.Histogram("dexa_match_index_build_seconds", "Signature-index rebuild latency.", nil)
	ix.mu.Unlock()
}

// Feasibility is the result of one pruning query: which indexed modules
// could possibly admit a parameter mapping from the target, as a packed
// bitset over the index's dense numbering. It is an immutable snapshot —
// concurrent index mutations replace the numbering wholesale and do not
// affect it.
type Feasibility struct {
	rank map[string]int // the index numbering this query ran under (shared)
	bits []uint64       // feasible bitset over rank
	self int            // target's own rank, -1 when unindexed
	// Candidates is how many indexed modules were considered and Pruned
	// how many of them were rejected.
	Candidates int
	Pruned     int
}

// Prunes reports whether the candidate is known to be mapping-infeasible.
// Unindexed modules are never pruned — the comparison falls through to
// MapParameters as before. Neither is the target itself (callers skip it
// anyway).
func (f *Feasibility) Prunes(id string) bool {
	if f == nil {
		return false
	}
	i, ok := f.rank[id]
	if !ok || i == f.self {
		return false
	}
	return f.bits[i>>6]&(1<<(uint(i)&63)) == 0
}

// Feasibility computes the mapping-feasible candidate set for the target
// signature under the given mode. The query walks the target's
// precomputed fingerprint classes (same-class parameters give identical
// intersections, so per-class is per-parameter), probes the postings
// through one reused key buffer, and allocates only the result bitset,
// its scratch and that buffer. The returned snapshot shares the index's
// (immutable) numbering.
func (ix *CatalogIndex) Feasibility(target *module.Module, mode Mode) *Feasibility {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	q := ix.newQueryLocked(mode)
	tSig := ix.targetSigLocked(target)
	q.candidates(tSig)
	live := q.live
	out := &Feasibility{rank: ix.rank, bits: live, self: -1}
	if i, ok := ix.rank[target.ID]; ok {
		out.self = i
	}
	for i, id := range ix.ids {
		if i == out.self {
			continue // never its own substitute; callers skip it anyway
		}
		out.Candidates++
		ok := hasBit(live, i)
		if ok {
			ok = countFeasible(tSig, ix.sigs[id], mode)
		}
		if !ok {
			live[i/64] &^= 1 << (i % 64)
			out.Pruned++
		}
	}
	return out
}

// openRows is the all-rows form of Feasibility that a matrix build
// reads: under one read lock and one query scratch it answers, for every
// ordered pair of the given modules, whether the index leaves that
// direction open. Row i is words [i*w, (i+1)*w) with w =
// (len(mods)+63)/64, and for j != i bit j is set exactly when
// !Feasibility(mods[i]).Prunes(mods[j].ID): candidates the index does
// not hold are always open. The diagonal is unspecified. Because every
// row comes from one snapshot, a concurrent Update or Remove lands
// wholly before or wholly after a build. A nil index leaves every
// direction open. gen is the generation the rows were read at (0 for a
// nil index).
func (ix *CatalogIndex) openRows(mods []*module.Module, mode Mode) (rows []uint64, gen uint64) {
	n := len(mods)
	w := (n + 63) / 64
	rows = make([]uint64, n*w)
	if ix == nil {
		for i := 0; i < n; i++ {
			fillBits(rows[i*w:(i+1)*w], n)
		}
		return rows, 0
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	// at maps each index rank to its input position (-1 when not an
	// input); cands holds each held input's indexed signature; unheld
	// marks the inputs the index does not hold, open to every target.
	at := make([]int, len(ix.ids))
	for r := range at {
		at[r] = -1
	}
	cands := make([]*moduleSig, n)
	unheld := make([]uint64, w)
	for j, m := range mods {
		if r, ok := ix.rank[m.ID]; ok {
			at[r] = j
			cands[j] = ix.sigs[m.ID]
		} else {
			setBit(unheld, j)
		}
	}
	q := ix.newQueryLocked(mode)
	for i, m := range mods {
		row := rows[i*w : (i+1)*w]
		copy(row, unheld)
		tSig := ix.targetSigLocked(m)
		q.candidates(tSig)
		forBits(q.live, 0, func(r int) {
			if j := at[r]; j >= 0 && j != i && countFeasible(tSig, cands[j], mode) {
				setBit(row, j)
			}
		})
	}
	return rows, ix.generation.Load()
}

// feasQuery is the scratch state of Feasibility rows: the live bitset
// being intersected, the per-parameter scratch, and the reused posting
// key buffer (probed via the allocation-free map[string(buf)] form).
type feasQuery struct {
	ix      *CatalogIndex
	mode    Mode
	live    []uint64
	scratch []uint64
	keyBuf  []byte
}

func (ix *CatalogIndex) newQueryLocked(mode Mode) feasQuery {
	return feasQuery{ix: ix, mode: mode, live: make([]uint64, ix.words), scratch: make([]uint64, ix.words)}
}

// candidates resets live to every indexed module, then intersects into
// it the postings compatible with each of the target's fingerprint
// classes. The survivors still owe the counting conditions
// (countFeasible).
func (q *feasQuery) candidates(t *moduleSig) {
	fillBits(q.live, len(q.ix.ids))
	for _, tc := range t.inClasses {
		if !q.intersect(q.ix.inPostings, tc.strct, tc.concept, false) {
			return
		}
	}
	for _, tc := range t.outClasses {
		if !q.intersect(q.ix.outPostings, tc.strct, tc.concept, true) {
			return
		}
	}
}

// intersect ANDs into live the union of postings compatible with one
// target fingerprint class: every target parameter must find at least
// one compatible parameter on the candidate's matching side.
func (q *feasQuery) intersect(postings map[string][]uint64, strct, sem string, output bool) bool {
	for w := range q.scratch {
		q.scratch[w] = 0
	}
	if q.mode == ModeExact {
		q.orPosting(postings, strct, sem)
	} else if q.ix.ont.Has(sem) { // Subsumes never holds for unknown concepts
		q.orPosting(postings, strct, sem)
		for _, a := range q.ix.ont.AncestorsView(sem) {
			q.orPosting(postings, strct, a)
		}
		if output { // outputs accept subsumption in either direction
			for _, d := range q.ix.ont.DescendantsView(sem) {
				q.orPosting(postings, strct, d)
			}
		}
	}
	empty := true
	for w := range q.live {
		q.live[w] &= q.scratch[w]
		if q.live[w] != 0 {
			empty = false
		}
	}
	return !empty
}

// orPosting ORs the posting bitset of one (struct, concept) fingerprint
// into the scratch, building the key in the reused buffer.
func (q *feasQuery) orPosting(postings map[string][]uint64, strct, concept string) {
	q.keyBuf = append(q.keyBuf[:0], strct...)
	q.keyBuf = append(q.keyBuf, 0)
	q.keyBuf = append(q.keyBuf, concept...)
	if bits, ok := postings[string(q.keyBuf)]; ok {
		for w := range q.scratch {
			q.scratch[w] |= bits[w]
		}
	}
}

// targetSigLocked resolves the target's signature: the indexed snapshot
// when present (the index contract requires Update on signature change,
// so the snapshot is current by invariant), a fresh one otherwise.
func (ix *CatalogIndex) targetSigLocked(target *module.Module) *moduleSig {
	if sig, ok := ix.sigs[target.ID]; ok {
		return sig
	}
	return signatureOf(target)
}

// countFeasible applies the counting conditions of the bijection on top
// of the per-parameter existence already established by the posting
// intersection. All conditions are necessary in both modes; in ModeExact
// the fingerprint-class conditions are also sufficient (Hall's condition
// on complete bipartite blocks), making exact-mode pruning complete.
func countFeasible(t, c *moduleSig, mode Mode) bool {
	// Every target input maps to a distinct candidate input; candidate
	// inputs left unmapped must be optional. Outputs map 1:1 exactly.
	if t.numInputs > c.numInputs || c.numRequired > t.numInputs {
		return false
	}
	if t.numOutputs != c.numOutputs {
		return false
	}
	// Structural types must be equal on every mapped pair in both modes.
	for s, cnt := range t.inStruct {
		if c.inStruct[s] < cnt {
			return false
		}
	}
	for s, cnt := range c.reqStruct {
		if t.inStruct[s] < cnt {
			return false
		}
	}
	for s, cnt := range t.outStruct {
		if c.outStruct[s] != cnt {
			return false
		}
	}
	if mode != ModeExact {
		return true
	}
	// Exact mode: fingerprint classes are matched only within themselves,
	// so per-class counting decides the bijection outright.
	for fp, tc := range t.inClasses {
		if c.inClasses[fp].count < tc.count {
			return false
		}
	}
	for fp, cc := range c.inClasses {
		if cc.required > t.inClasses[fp].count {
			return false
		}
	}
	for fp, tc := range t.outClasses {
		if c.outClasses[fp].count != tc.count {
			return false
		}
	}
	return true
}

// Packed bitsets: bit i of b lives in word i>>6.

func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func setBit(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// fillBits sets bits [0, n) of b and clears the rest.
func fillBits(b []uint64, n int) {
	for k := range b {
		switch rest := n - k<<6; {
		case rest >= 64:
			b[k] = ^uint64(0)
		case rest > 0:
			b[k] = 1<<uint(rest) - 1
		default:
			b[k] = 0
		}
	}
}

// forBits calls fn with every set bit of b at or above from, ascending.
func forBits(b []uint64, from int, fn func(i int)) {
	for k := from >> 6; k < len(b); k++ {
		word := b[k]
		if k == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		for ; word != 0; word &= word - 1 {
			fn(k<<6 + bits.TrailingZeros64(word))
		}
	}
}

// countBits counts the set bits of b at or above from.
func countBits(b []uint64, from int) int {
	n := 0
	for k := from >> 6; k < len(b); k++ {
		word := b[k]
		if k == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		n += bits.OnesCount64(word)
	}
	return n
}
