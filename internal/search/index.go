// Package search is the behavior-aware repository search subsystem: an
// inverted index over the module catalog that answers ranked keyword,
// ontology-concept and behavior-class queries (Davidson et al., "Search
// and Result Presentation in Scientific Workflow Repositories").
//
// Three posting families feed the ranking:
//
//   - keyword postings, tokenized from module IDs, names, descriptions,
//     parameter names, providers and kinds, scored TF-IDF style;
//   - concept postings from parameter annotations, expanded at query time
//     through the ontology's subsumption closure (a query for
//     NucleotideSequence finds modules annotated DNASequence), boosted by
//     concept specificity (deeper matches score higher);
//   - behavior postings, keyed by a fingerprint of the module's stored
//     data-example set — two modules share a behavior class exactly when
//     their observed input⇒output tables are identical, the data-example
//     notion of "behaves like" from the source paper.
//
// The index is maintained incrementally: Update and Remove touch only the
// postings of the affected document (no full rebuild on the hot path), so
// store writes and lifecycle availability flips are cheap to mirror. A
// generation counter increments on every mutation; pagination cursors
// embed it so a page walk either resumes consistently or is told to
// restart (see query.go). Changed lets a long-poll wait for the next
// mutation, and a random per-instance nonce tells two indexes at the same
// generation apart.
package search

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"dexa/internal/dataexample"
	"dexa/internal/longpoll"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/telemetry"
)

// doc is one indexed module: the per-document halves of the postings, so
// Remove can subtract exactly what Update added.
type doc struct {
	id       string
	name     string
	kind     string
	terms    map[string]int // keyword term -> tf
	norm     float64        // sqrt(sum tf²), the cosine length
	concepts []string       // sorted distinct parameter concepts
	behavior string         // example-set fingerprint ("" when unannotated)
	examples int
	version  uint64 // store version the behavior posting was built from
}

// Index is the inverted index. All methods are safe for concurrent use;
// reads take the read lock, mutations the write lock.
type Index struct {
	ont *ontology.Ontology

	mu       sync.RWMutex
	docs     map[string]*doc
	keyword  map[string]map[string]int  // term -> docID -> tf
	concept  map[string]map[string]bool // concept -> docID set
	behavior map[string]map[string]bool // fingerprint -> docID set
	postings int                        // live keyword postings
	// changed wakes every Changed waiter when the generation moves.
	changed longpoll.Signal

	nonce      string
	generation atomic.Uint64
	queries    atomic.Uint64
	updates    atomic.Uint64

	querySeconds *telemetry.Histogram
}

// New builds an empty index over the ontology.
func New(ont *ontology.Ontology) *Index {
	return &Index{
		ont:      ont,
		nonce:    longpoll.Nonce(),
		docs:     map[string]*doc{},
		keyword:  map[string]map[string]int{},
		concept:  map[string]map[string]bool{},
		behavior: map[string]map[string]bool{},
	}
}

// Fingerprint derives the behavior class of an example set: the SHA-256
// of its sorted input⇒output table, truncated for display. Sets with the
// same observed behavior — regardless of parameter names, providers or
// generation order — fingerprint identically; an empty set has no class.
func Fingerprint(set dataexample.Set) string {
	return fingerprint(len(set), func(i int) string { return set[i].InputKey() + " => " + set[i].OutputKey() })
}

// FingerprintKeyed is Fingerprint over a keyed set: it hashes the keys
// the set already holds instead of re-canonicalising every example.
func FingerprintKeyed(set *dataexample.KeyedSet) string {
	if set == nil {
		return ""
	}
	return fingerprint(set.Len(), func(i int) string { return set.InputKey(i) + " => " + set.OutputKey(i) })
}

// fingerprint hashes the sorted lines of an n-example set.
func fingerprint(n int, line func(i int) string) string {
	if n == 0 {
		return ""
	}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = line(i)
	}
	sort.Strings(lines)
	size := 0
	for _, l := range lines {
		size += len(l) + 1
	}
	buf := make([]byte, 0, size)
	for _, l := range lines {
		buf = append(append(buf, l...), '\n')
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// tokenize splits an identifier or prose fragment into lowercase terms:
// camelCase hump boundaries, digits and punctuation all separate terms.
func tokenize(s string, into map[string]int) {
	var b strings.Builder
	flush := func() {
		if b.Len() >= 2 {
			into[strings.ToLower(b.String())]++
		}
		b.Reset()
	}
	var prev rune
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if unicode.IsUpper(r) && unicode.IsLower(prev) {
				flush()
			}
			b.WriteRune(r)
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			flush()
		}
		prev = r
	}
	flush()
}

// docTerms builds the keyword term vector of a module.
func docTerms(m *module.Module) map[string]int {
	terms := map[string]int{}
	tokenize(m.ID, terms)
	terms[strings.ToLower(m.ID)]++ // the exact ID is always a term
	tokenize(m.Name, terms)
	tokenize(m.Description, terms)
	tokenize(m.Provider, terms)
	tokenize(m.Kind.String(), terms)
	for _, p := range append(append([]module.Parameter{}, m.Inputs...), m.Outputs...) {
		tokenize(p.Name, terms)
	}
	return terms
}

// docConcepts collects the sorted distinct parameter concepts.
func docConcepts(m *module.Module) []string {
	seen := map[string]bool{}
	for _, p := range append(append([]module.Parameter{}, m.Inputs...), m.Outputs...) {
		if p.Semantic != "" {
			seen[p.Semantic] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Update indexes (or re-indexes) one module with its stored example set.
// The version tags the behavior posting with the store write it came
// from, letting a resync skip documents that have not changed. Only this
// document's postings are touched.
func (ix *Index) Update(m *module.Module, set dataexample.Set, version uint64) {
	d := &doc{
		id:       m.ID,
		name:     m.Name,
		kind:     m.Kind.String(),
		terms:    docTerms(m),
		concepts: docConcepts(m),
		behavior: Fingerprint(set),
		examples: len(set),
		version:  version,
	}
	var sum float64
	for _, tf := range d.terms {
		sum += float64(tf) * float64(tf)
	}
	d.norm = math.Sqrt(sum)

	ix.mu.Lock()
	ix.removeLocked(m.ID)
	ix.docs[m.ID] = d
	for t, tf := range d.terms {
		post := ix.keyword[t]
		if post == nil {
			post = map[string]int{}
			ix.keyword[t] = post
		}
		post[m.ID] = tf
		ix.postings++
	}
	for _, c := range d.concepts {
		post := ix.concept[c]
		if post == nil {
			post = map[string]bool{}
			ix.concept[c] = post
		}
		post[m.ID] = true
	}
	if d.behavior != "" {
		post := ix.behavior[d.behavior]
		if post == nil {
			post = map[string]bool{}
			ix.behavior[d.behavior] = post
		}
		post[m.ID] = true
	}
	ix.bumpLocked()
	ix.mu.Unlock()
	ix.updates.Add(1)
}

// Remove drops a module from every posting list (a retired or quarantined
// module must stop appearing in results).
func (ix *Index) Remove(id string) {
	ix.mu.Lock()
	removed := ix.removeLocked(id)
	if removed {
		ix.bumpLocked()
	}
	ix.mu.Unlock()
	if removed {
		ix.updates.Add(1)
	}
}

// bumpLocked moves the generation and wakes every Changed waiter. The
// caller holds the write lock.
func (ix *Index) bumpLocked() {
	ix.generation.Add(1)
	ix.changed.Fire()
}

func (ix *Index) removeLocked(id string) bool {
	d, ok := ix.docs[id]
	if !ok {
		return false
	}
	delete(ix.docs, id)
	for t := range d.terms {
		if post := ix.keyword[t]; post != nil {
			delete(post, id)
			ix.postings--
			if len(post) == 0 {
				delete(ix.keyword, t)
			}
		}
	}
	for _, c := range d.concepts {
		if post := ix.concept[c]; post != nil {
			delete(post, id)
			if len(post) == 0 {
				delete(ix.concept, c)
			}
		}
	}
	if d.behavior != "" {
		if post := ix.behavior[d.behavior]; post != nil {
			delete(post, id)
			if len(post) == 0 {
				delete(ix.behavior, d.behavior)
			}
		}
	}
	return true
}

// Generation returns the mutation counter. Every Update or effective
// Remove bumps it under the write lock, so a reader holding the read
// lock sees the documents of exactly the generation it reads; cursors
// and ETags key on it.
func (ix *Index) Generation() uint64 { return ix.generation.Load() }

// Changed returns a channel that is closed once the generation is no
// longer gen. When it already is not, the channel is already closed, so
// a select never misses a mutation.
func (ix *Index) Changed(gen uint64) <-chan struct{} {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.changed.Wait(ix.generation.Load() != gen)
}

// Nonce is random per Index: a generation names a state of this index
// only, so a validator built from it carries the nonce too, and an index
// rebuilt after a restart never validates one the old index minted.
func (ix *Index) Nonce() string { return ix.nonce }

// Tag names one state of one index, "<nonce>.<generation>": what a
// validator of an answer read at that state binds to.
func Tag(nonce string, gen uint64) string {
	return nonce + "." + strconv.FormatUint(gen, 10)
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// DocVersion returns the store version a document was indexed at.
func (ix *Index) DocVersion(id string) (uint64, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, ok := ix.docs[id]
	if !ok {
		return 0, false
	}
	return d.version, true
}

// BehaviorClass returns a document's example-set fingerprint ("" when the
// module is unannotated or not indexed). The cluster router uses it to
// resolve behaves: anchors on the shard that stores the set.
func (ix *Index) BehaviorClass(id string) (string, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	d, ok := ix.docs[id]
	if !ok {
		return "", false
	}
	return d.behavior, true
}

// Summary returns, with the generation it was read at, the Remote of
// every indexed document owns claims: what a shard tells the others
// about the modules it owns, so they can answer searches over them.
func (ix *Index) Summary(owns func(id string) bool) (map[string]Remote, uint64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	docs := map[string]Remote{}
	for id, d := range ix.docs {
		if owns(id) {
			docs[id] = Remote{Examples: d.examples, Class: d.behavior}
		}
	}
	return docs, ix.generation.Load()
}

// Stats is the index health block surfaced by GET /stats.
type Stats struct {
	Docs            int    `json:"docs"`
	Terms           int    `json:"terms"`
	Postings        int    `json:"postings"`
	Concepts        int    `json:"concepts"`
	BehaviorClasses int    `json:"behaviorClasses"`
	Generation      uint64 `json:"generation"`
	Queries         uint64 `json:"queries"`
	Updates         uint64 `json:"updates"`
}

// Stats snapshots the index counters.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	s := Stats{
		Docs:            len(ix.docs),
		Terms:           len(ix.keyword),
		Postings:        ix.postings,
		Concepts:        len(ix.concept),
		BehaviorClasses: len(ix.behavior),
	}
	ix.mu.RUnlock()
	s.Generation = ix.generation.Load()
	s.Queries = ix.queries.Load()
	s.Updates = ix.updates.Load()
	return s
}

// Instrument registers the dexa_search_* metric family on the registry.
func (ix *Index) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("dexa_search_docs", "Modules in the search index.", func() float64 {
		return float64(ix.Len())
	})
	r.GaugeFunc("dexa_search_terms", "Distinct keyword terms in the search index.", func() float64 {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return float64(len(ix.keyword))
	})
	r.GaugeFunc("dexa_search_postings", "Live keyword postings in the search index.", func() float64 {
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		return float64(ix.postings)
	})
	r.GaugeFunc("dexa_search_generation", "Search index mutation generation.", func() float64 {
		return float64(ix.Generation())
	})
	r.CounterFunc("dexa_search_queries_total", "Queries answered by the search index.", func() float64 {
		return float64(ix.queries.Load())
	})
	r.CounterFunc("dexa_search_updates_total", "Incremental document updates applied to the search index.", func() float64 {
		return float64(ix.updates.Load())
	})
	ix.querySeconds = r.Histogram("dexa_search_query_seconds", "Search query latency.", nil)
}
