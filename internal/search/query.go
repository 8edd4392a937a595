package search

import (
	"encoding/base64"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Query atoms. A query string is whitespace-separated atoms; each atom is
// one of
//
//	<term>               keyword match against module metadata
//	concept:<ConceptID>  parameter-annotation match, expanded through the
//	                     ontology's subsumption closure
//	behaves:<moduleID>   behavior-class match: modules whose stored
//	                     example set fingerprints identically to the
//	                     anchor module's
//
// Atoms union: a document matches when any atom matches it, and every
// matching atom contributes to its score.
type Query struct {
	Raw      string
	Terms    []string // sorted lowercase keyword terms
	Concepts []string // sorted concept IDs
	Behaves  []string // sorted anchor module IDs
	// AnchorFingerprints pre-resolves behaves: anchors to fingerprints.
	// Empty entries are resolved against the local index at match time;
	// the cluster router fills it from the anchor's owner shard so every
	// shard scores against the same class.
	AnchorFingerprints map[string]string
}

// ParseQuery parses a raw query string. An empty query (or one with no
// usable atoms) is an error.
func ParseQuery(raw string) (Query, error) {
	q := Query{Raw: raw}
	termSet := map[string]bool{}
	conceptSet := map[string]bool{}
	behavesSet := map[string]bool{}
	for _, atom := range strings.Fields(raw) {
		switch {
		case strings.HasPrefix(atom, "concept:"):
			id := strings.TrimPrefix(atom, "concept:")
			if id == "" {
				return Query{}, fmt.Errorf("search: empty concept: atom")
			}
			conceptSet[id] = true
		case strings.HasPrefix(atom, "behaves:"):
			id := strings.TrimPrefix(atom, "behaves:")
			if id == "" {
				return Query{}, fmt.Errorf("search: empty behaves: atom")
			}
			behavesSet[id] = true
		default:
			sub := map[string]int{}
			tokenize(atom, sub)
			for t := range sub {
				termSet[t] = true
			}
		}
	}
	for t := range termSet {
		q.Terms = append(q.Terms, t)
	}
	for c := range conceptSet {
		q.Concepts = append(q.Concepts, c)
	}
	for b := range behavesSet {
		q.Behaves = append(q.Behaves, b)
	}
	sort.Strings(q.Terms)
	sort.Strings(q.Concepts)
	sort.Strings(q.Behaves)
	if len(q.Terms) == 0 && len(q.Concepts) == 0 && len(q.Behaves) == 0 {
		return Query{}, fmt.Errorf("search: empty query")
	}
	return q, nil
}

// Key returns the canonical form of the query — cursors bind to it so a
// cursor minted for one query cannot page through another.
func (q Query) Key() string {
	parts := make([]string, 0, len(q.Terms)+len(q.Concepts)+len(q.Behaves))
	parts = append(parts, q.Terms...)
	for _, c := range q.Concepts {
		parts = append(parts, "concept:"+c)
	}
	for _, b := range q.Behaves {
		parts = append(parts, "behaves:"+b)
	}
	return strings.Join(parts, " ")
}

// Scoring weights: a behavior-class match (the paper's own notion of
// similarity) outweighs a concept match, which outweighs a keyword match.
const (
	weightKeyword  = 1.0
	weightConcept  = 2.0
	weightBehavior = 4.0
)

// Hit is one ranked result.
type Hit struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Score is the blended rank; the three component scores break it down.
	Score    float64 `json:"score"`
	Keyword  float64 `json:"keyword,omitempty"`
	Concept  float64 `json:"concept,omitempty"`
	Behavior float64 `json:"behavior,omitempty"`
	// Matched lists the query atoms this document matched, sorted.
	Matched []string `json:"matched"`
	// Examples and BehaviorClass describe the stored annotation backing
	// the behavior posting: zero/empty for an unannotated module, and for
	// a module another shard owns the owner's values, lent by an Overlay.
	Examples      int    `json:"examples,omitempty"`
	BehaviorClass string `json:"behaviorClass,omitempty"`
}

// Remote is the stored-annotation half of a document as the shard that
// owns the module indexes it: the two Hit fields only the owner knows.
type Remote struct {
	Examples int    `json:"examples,omitempty"`
	Class    string `json:"class,omitempty"`
}

// Overlay lends MatchOverlay what other shards know: every node indexes
// the whole catalog's metadata, but stores example sets only for the
// modules it owns.
type Overlay struct {
	local   func(id string) bool
	docs    map[string]Remote
	classes map[string][]string // behavior class -> remote module IDs
}

// NewOverlay builds the overlay of the remote modules' docs: for a module
// local does not claim, the owner's Remote replaces the local document's
// examples and class, and a module missing from docs (its owner does not
// index it, or did not answer) is no hit. It indexes docs by behavior
// class once, so a query reads the overlay's class postings without a
// scan.
func NewOverlay(local func(id string) bool, docs map[string]Remote) *Overlay {
	ov := &Overlay{local: local, docs: docs, classes: map[string][]string{}}
	for id, r := range docs {
		if r.Class != "" {
			ov.classes[r.Class] = append(ov.classes[r.Class], id)
		}
	}
	return ov
}

// Match scores every document against the query and returns the full
// ranked hit list plus the index generation it was computed at. Ranking
// is deterministic: score descending, then module ID ascending.
func (ix *Index) Match(q Query) ([]Hit, uint64) { return ix.MatchOverlay(q, nil) }

// MatchOverlay is Match with the stored annotations of other shards'
// modules taken from ov (nil: this index's own). Keyword and concept
// scores come from this index, whose catalog statistics every node
// shares; behaves: anchors and class postings of remote modules, and
// their hits' examples and class, come from ov.
func (ix *Index) MatchOverlay(q Query, ov *Overlay) ([]Hit, uint64) {
	start := time.Now()
	ix.mu.RLock()
	gen := ix.generation.Load()
	n := len(ix.docs)

	type acc struct {
		keyword, concept, behavior float64
		matched                    []string
	}
	accs := map[string]*acc{}
	get := func(id string) *acc {
		a := accs[id]
		if a == nil {
			a = &acc{}
			accs[id] = a
		}
		return a
	}

	// Keyword atoms: cosine-normalized TF-IDF.
	for _, term := range q.Terms {
		post := ix.keyword[term]
		if len(post) == 0 {
			continue
		}
		idf := 1 + math.Log(float64(n)/float64(1+len(post)))
		if idf < 0 {
			idf = 0
		}
		for id, tf := range post {
			d := ix.docs[id]
			a := get(id)
			a.keyword += weightKeyword * float64(tf) * idf / d.norm
			a.matched = append(a.matched, term)
		}
	}

	// Concept atoms: expand through the subsumption closure; a document's
	// contribution per atom is its most specific matching annotation,
	// scaled by ontology depth so DNASequence beats BiologicalSequence.
	for _, qc := range q.Concepts {
		if ix.ont == nil || !ix.ont.Has(qc) {
			continue
		}
		expanded := append([]string{qc}, ix.ont.DescendantsView(qc)...)
		sort.Strings(expanded)
		best := map[string]float64{}
		for _, c := range expanded {
			post := ix.concept[c]
			if len(post) == 0 {
				continue
			}
			spec := 1 + float64(ix.ont.Depth(c))
			contribution := weightConcept * spec / (spec + 2)
			for id := range post {
				if contribution > best[id] {
					best[id] = contribution
				}
			}
		}
		ids := make([]string, 0, len(best))
		for id := range best {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			a := get(id)
			a.concept += best[id]
			a.matched = append(a.matched, "concept:"+qc)
		}
	}

	// Behavior atoms: exact fingerprint equality with the anchor's class.
	remote := func(id string) bool { return ov != nil && !ov.local(id) }
	for _, anchor := range q.Behaves {
		fp := q.AnchorFingerprints[anchor]
		if fp == "" {
			if remote(anchor) {
				fp = ov.docs[anchor].Class
			} else if d, ok := ix.docs[anchor]; ok {
				fp = d.behavior
			}
		}
		if fp == "" {
			continue
		}
		add := func(id string) {
			a := get(id)
			a.behavior += weightBehavior
			a.matched = append(a.matched, "behaves:"+anchor)
		}
		for id := range ix.behavior[fp] {
			if !remote(id) {
				add(id)
			}
		}
		if ov != nil {
			for _, id := range ov.classes[fp] {
				if _, ok := ix.docs[id]; ok {
					add(id)
				}
			}
		}
	}

	hits := make([]Hit, 0, len(accs))
	for id, a := range accs {
		d := ix.docs[id]
		examples, class := d.examples, d.behavior
		if remote(id) {
			r, ok := ov.docs[id]
			if !ok {
				continue
			}
			examples, class = r.Examples, r.Class
		}
		sort.Strings(a.matched)
		hits = append(hits, Hit{
			ID:            id,
			Name:          d.name,
			Kind:          d.kind,
			Score:         a.keyword + a.concept + a.behavior,
			Keyword:       a.keyword,
			Concept:       a.concept,
			Behavior:      a.behavior,
			Matched:       a.matched,
			Examples:      examples,
			BehaviorClass: class,
		})
	}
	ix.mu.RUnlock()

	SortHits(hits)
	ix.queries.Add(1)
	ix.querySeconds.Observe(time.Since(start).Seconds())
	return hits, gen
}

// SortHits applies the canonical ranking order: score descending, module
// ID ascending. The cluster router sorts merged shard slices with it so
// a scattered ranking is identical to a single node's.
func SortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
}

// Page is one pagination window over a ranked hit list.
type Page struct {
	Hits  []Hit
	Total int
	// NextCursor resumes after the last hit of this page ("" on the final
	// page). Cursors bind to the query and the state the hits were read at.
	NextCursor string
	// Generation is the index generation Search read the hits at.
	Generation uint64
}

// ErrCursorExpired reports that the index mutated since the cursor was
// minted: scores may have shifted, so resuming could duplicate or skip
// results. The caller must restart from the first page.
var ErrCursorExpired = errors.New("search: cursor expired: index changed, restart from the first page")

const cursorVersion = "v1"

// queryHash is the FNV-1a hash a cursor stores of a key: the query's,
// and the Tag Search binds its cursors to.
func queryHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// cursor is the decoded resume position: the hashes of the state (gen)
// and the query it binds to, and the (score, id) of the last hit served.
type cursor struct {
	gen   uint64
	query uint64
	score float64
	id    string
}

// encodeCursor is the inverse of decodeCursor.
func encodeCursor(c cursor) string {
	raw := fmt.Sprintf("%s|%d|%x|%x|%s",
		cursorVersion, c.gen, c.query, math.Float64bits(c.score), c.id)
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

func decodeCursor(s string) (cursor, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return cursor{}, fmt.Errorf("search: malformed cursor")
	}
	parts := strings.SplitN(string(raw), "|", 5)
	if len(parts) != 5 || parts[0] != cursorVersion {
		return cursor{}, fmt.Errorf("search: malformed cursor")
	}
	var c cursor
	if c.gen, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return cursor{}, fmt.Errorf("search: malformed cursor")
	}
	if c.query, err = strconv.ParseUint(parts[2], 16, 64); err != nil {
		return cursor{}, fmt.Errorf("search: malformed cursor")
	}
	bits, err := strconv.ParseUint(parts[3], 16, 64)
	if err != nil {
		return cursor{}, fmt.Errorf("search: malformed cursor")
	}
	c.score = math.Float64frombits(bits)
	c.id = parts[4]
	return c, nil
}

// PaginateHits windows a ranked hit list: limit hits starting after the
// cursor position (or from the top with an empty cursor). It is exported
// so the cluster scatter path can window a merged ranking exactly the
// way a single node windows its own.
//
// state is a 64-bit hash of the state the hits were read at. A cursor
// minted at a different state returns ErrCursorExpired; one minted for a
// different query is a plain error.
func PaginateHits(hits []Hit, state uint64, queryKey string, limit int, cur string) (Page, error) {
	page := Page{Total: len(hits)}
	start := 0
	if cur != "" {
		c, err := decodeCursor(cur)
		if err != nil {
			return Page{}, err
		}
		if c.query != queryHash(queryKey) {
			return Page{}, fmt.Errorf("search: cursor belongs to a different query")
		}
		if c.gen != state {
			return Page{}, ErrCursorExpired
		}
		// Resume strictly after (score, id) in ranking order.
		start = sort.Search(len(hits), func(i int) bool {
			if hits[i].Score != c.score {
				return hits[i].Score < c.score
			}
			return hits[i].ID > c.id
		})
	}
	end := len(hits)
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	page.Hits = hits[start:end]
	if end < len(hits) && len(page.Hits) > 0 {
		last := page.Hits[len(page.Hits)-1]
		page.NextCursor = encodeCursor(cursor{gen: state, query: queryHash(queryKey), score: last.Score, id: last.ID})
	}
	return page, nil
}

// Search runs the query and windows the result, its cursors bound to
// the index's Tag: a cursor minted by another index at the same
// generation (one rebuilt after a restart) expires.
func (ix *Index) Search(q Query, limit int, cur string) (Page, error) {
	hits, gen := ix.Match(q)
	page, err := PaginateHits(hits, queryHash(Tag(ix.nonce, gen)), q.Key(), limit, cur)
	page.Generation = gen
	return page, err
}
