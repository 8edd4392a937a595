package match

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// KeyedSource yields the key-interned example set annotating one module.
// Sources that key (and intern) once per store write — *store.Store via
// GetKeyed — let every matrix build skip canonicalisation entirely; the
// sweep then compares interned symbol IDs end to end. Returning false
// marks the module as unannotated; it is listed in Missing and excluded
// from the pair sweep.
type KeyedSource func(id string) (set *dataexample.KeyedSet, ok bool)

// MatrixCell is one non-incomparable verdict of the all-pairs sweep.
type MatrixCell struct {
	Target    string  `json:"target"`
	Candidate string  `json:"candidate"`
	Verdict   string  `json:"verdict"`
	Score     float64 `json:"score"`
	Compared  int     `json:"compared"`
	Agreeing  int     `json:"agreeing"`
}

// MatrixStats summarises the sweep: how many ordered pairs the catalog
// induces, how many the signature index pruned without any example
// comparison, how many alignments actually ran, and how many cells were
// filled by symmetry instead of recomputation.
type MatrixStats struct {
	Modules      int `json:"modules"`
	Pairs        int `json:"pairs"`
	Pruned       int `json:"pruned"`
	Compared     int `json:"compared"`
	Mirrored     int `json:"mirrored"`
	Incomparable int `json:"incomparable"`
	Equivalent   int `json:"equivalent"`
	Overlapping  int `json:"overlapping"`
	Disjoint     int `json:"disjoint"`
}

// MatchMatrix is the materialised catalog-wide verdict map: every ordered
// module pair whose behaviours are comparable at all, in deterministic
// (target, candidate) order. Incomparable pairs — the overwhelming
// majority at catalog scale — are represented implicitly: any pair
// absent from Cells is Incomparable.
type MatchMatrix struct {
	Mode    string       `json:"mode"`
	Modules []string     `json:"modules"`
	Missing []string     `json:"missing,omitempty"`
	Cells   []MatrixCell `json:"cells"`
	Stats   MatrixStats  `json:"stats"`
}

// cell is one ordered-pair outcome of the sweep. aligned marks a
// direction whose example alignment ran, mirrored one copied from the
// aligned reverse direction; the zero cell is an Incomparable verdict
// reached without any alignment.
type cell struct {
	verdict  Verdict
	score    float64
	compared int
	agreeing int
	mirrored bool
	aligned  bool
}

// pairCells is the outcome of one visited unordered pair (a, b) with
// a < b: fwd is the ordered cell (a, b) and rev the cell (b, a).
type pairCells struct {
	fwd, rev cell
}

// matrixInputs is the resolved, sorted input of a matrix build: parallel
// columns over the deduped module IDs that have example sets.
type matrixInputs struct {
	ids     []string
	sigs    []*module.Module
	keyed   []*dataexample.KeyedSet
	missing []string
}

func resolveMatrixInputs(mods []*module.Module, source KeyedSource) matrixInputs {
	var in matrixInputs
	seen := make(map[string]bool, len(mods))
	for _, m := range mods {
		if m == nil || seen[m.ID] {
			continue
		}
		seen[m.ID] = true
		set, ok := source(m.ID)
		if !ok {
			in.missing = append(in.missing, m.ID)
			continue
		}
		in.ids = append(in.ids, m.ID)
		in.sigs = append(in.sigs, m)
		in.keyed = append(in.keyed, set)
	}
	// Sort the three columns together by module ID.
	sort.Sort(byMatrixID{&in})
	sort.Strings(in.missing)
	return in
}

// byMatrixID sorts a matrixInputs' parallel columns by module ID.
type byMatrixID struct{ in *matrixInputs }

func (s byMatrixID) Len() int           { return len(s.in.ids) }
func (s byMatrixID) Less(i, j int) bool { return s.in.ids[i] < s.in.ids[j] }
func (s byMatrixID) Swap(i, j int) {
	s.in.ids[i], s.in.ids[j] = s.in.ids[j], s.in.ids[i]
	s.in.sigs[i], s.in.sigs[j] = s.in.sigs[j], s.in.sigs[i]
	s.in.keyed[i], s.in.keyed[j] = s.in.keyed[j], s.in.keyed[i]
}

// matrixScratch is one worker's arena: comparison buffers and two live
// mapping slots (exact-mode mirroring checks mappingsInverse(fwd, rev),
// so both directions' derivations must be alive at once).
type matrixScratch struct {
	cmp CompareScratch
	fwd mappingSlot
	rev mappingSlot
}

// MatchMatrixFromKeyedSets materialises the all-pairs verdict map over
// pre-keyed example sets. The sweep is pure set alignment — no module is
// invoked — so it runs over stored annotations of retired modules just
// as well as fresh ones.
//
// Determinism and dedup: cells are ordered by (target, candidate) module
// ID regardless of worker scheduling. In ModeExact, a symmetric pair
// whose reverse mapping is exactly the inverse of the forward one (and
// whose sets have unique input keys) is computed once and mirrored —
// alignment through a bijective translation is symmetric in Compared and
// Agreeing — while any ambiguous or asymmetric pair is computed in both
// directions, keeping the matrix byte-identical to the naive ordered
// double loop. ModeRelaxed is inherently directional and always computes
// both directions.
//
// When the Comparer carries a CatalogIndex, only the pairs its
// feasibility rows leave open in at least one direction are visited;
// every other pair is pruned without a mapping attempt.
func (c *Comparer) MatchMatrixFromKeyedSets(ctx context.Context, mods []*module.Module, source KeyedSource) (*MatchMatrix, error) {
	_, span := telemetry.StartSpan(ctx, "match.matrix")
	defer span.End()

	in := resolveMatrixInputs(mods, source)
	n := len(in.ids)
	mm := &MatchMatrix{
		Mode:    c.Mode.String(),
		Modules: in.ids,
		Missing: in.missing,
		Cells:   []MatrixCell{},
		Stats:   MatrixStats{Modules: n, Pairs: n * (n - 1)},
	}
	if n < 2 {
		return mm, ctx.Err()
	}
	if err := c.buildMatrix(ctx, span, mm, &in, nil); err != nil {
		return nil, err
	}
	return mm, nil
}

// buildMatrix is the one sweep behind MatchMatrixFromKeyedSets and
// MatchMatrixSlice. It reads every row's open directions from one index
// snapshot, computes only the unordered pairs a < b that are owned
// (own[a]; nil owns every row) and open in at least one direction, and
// emits their cells row by row in (target, candidate) order, so beyond
// the feasibility queries a build costs O(n + feasible pairs). An owned
// pair it never visits is pruned both ways, and an owned direction it
// emits no cell for is Incomparable, so both counts follow from the
// visited cells.
func (c *Comparer) buildMatrix(ctx context.Context, span *telemetry.Span, mm *MatchMatrix, in *matrixInputs, own []bool) error {
	met := newMatchMetrics(c.Metrics)
	n := len(in.ids)
	w := (n + 63) / 64
	open := c.Index.openRows(in.sigs, c.Mode)
	isOpen := func(a, b int) bool { return hasBit(open[a*w:], b) }
	// visit is open made symmetric and restricted to owned pairs: bit b
	// of row a is set when the pair {a, b} is owned and open at least one
	// way. start[a] is the index of row a's first pair a < b in pairs.
	visit := make([]uint64, n*w)
	for a := 0; a < n; a++ {
		forBits(open[a*w:(a+1)*w], 0, func(b int) {
			if a != b && (own == nil || own[min(a, b)]) {
				setBit(visit[a*w:], b)
				setBit(visit[b*w:], a)
			}
		})
	}
	start := make([]int, n+1)
	for a := 0; a < n; a++ {
		start[a+1] = start[a] + countBits(visit[a*w:(a+1)*w], a+1)
	}
	pairs := make([]pairCells, start[n])

	// Workers claim rows through an atomic counter and carry their own
	// scratch, so a warm sweep allocates nothing per pair; each writes
	// only its own rows' span of pairs.
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	sweep := func() {
		var sc matrixScratch
		for {
			a := int(next.Add(1)) - 1
			if a >= n-1 || ctx.Err() != nil {
				return
			}
			k := start[a]
			forBits(visit[a*w:(a+1)*w], a+1, func(b int) {
				pairs[k].fwd, pairs[k].rev = c.computePair(in, a, b, isOpen(a, b), isOpen(b, a), &sc, &met)
				k++
			})
		}
	}
	if workers = min(workers, n-1); workers <= 1 {
		sweep()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sweep()
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Row t's cells with candidate c > t are the fwd cells of its own
	// pairs, in order. Those with c < t are the rev cells of pairs (c, t),
	// and pair (c, t) is always the next one of row c not yet emitted,
	// because every row before t has already consumed its own.
	kept := 0
	for _, p := range pairs {
		if p.fwd.verdict != Incomparable {
			kept++
		}
		if p.rev.verdict != Incomparable {
			kept++
		}
	}
	mm.Cells = make([]MatrixCell, 0, kept)
	st := &mm.Stats
	st.Pruned = st.Pairs - 2*len(pairs)
	nextRev := append([]int(nil), start[:n]...)
	for t := 0; t < n; t++ {
		k := start[t]
		forBits(visit[t*w:(t+1)*w], 0, func(c int) {
			var cl cell
			if c < t {
				cl = pairs[nextRev[c]].rev
				nextRev[c]++
			} else {
				cl = pairs[k].fwd
				k++
			}
			switch {
			case !isOpen(t, c):
				st.Pruned++
			case cl.aligned:
				st.Compared++
			case cl.mirrored:
				st.Mirrored++
			}
			switch cl.verdict {
			case Incomparable:
				return
			case Equivalent:
				st.Equivalent++
			case Overlapping:
				st.Overlapping++
			case Disjoint:
				st.Disjoint++
			}
			mm.Cells = append(mm.Cells, MatrixCell{
				Target:    in.ids[t],
				Candidate: in.ids[c],
				Verdict:   cl.verdict.String(),
				Score:     cl.score,
				Compared:  cl.compared,
				Agreeing:  cl.agreeing,
			})
		})
	}
	st.Incomparable = st.Pairs - st.Equivalent - st.Overlapping - st.Disjoint

	met.comparisons.Add(uint64(st.Compared))
	met.pruned.Add(uint64(st.Pruned))
	span.Annotate("modules", strconv.Itoa(n))
	span.Annotate("pairs", strconv.Itoa(st.Pairs))
	span.Annotate("pruned", strconv.Itoa(st.Pruned))
	span.Annotate("compared", strconv.Itoa(st.Compared))
	span.Annotate("mirrored", strconv.Itoa(st.Mirrored))
	return nil
}

// computePair settles both ordered directions of the unordered pair
// (a, b): fwd is the cell (a, b) and rev the cell (b, a). A closed
// direction is Incomparable without a mapping attempt.
func (c *Comparer) computePair(in *matrixInputs, a, b int, openAB, openBA bool, sc *matrixScratch, met *matchMetrics) (fwd, rev cell) {
	fm, fok := c.pairMapping(in, a, b, openAB, &sc.fwd)
	rm, rok := c.pairMapping(in, b, a, openBA, &sc.rev)
	if c.Mode == ModeExact && fok && rok && mappingsInverse(fm, rm) &&
		in.keyed[a].UniqueInputs() && in.keyed[b].UniqueInputs() {
		fwd = c.alignCell(in, a, b, fm, sc, met)
		rev = fwd
		rev.aligned, rev.mirrored = false, true
		return fwd, rev
	}
	if fok {
		fwd = c.alignCell(in, a, b, fm, sc, met)
	}
	if rok {
		rev = c.alignCell(in, b, a, rm, sc, met)
	}
	return fwd, rev
}

// pairMapping resolves the mapping for the ordered direction (ti, ci)
// into the given slot, unless the index closed that direction.
func (c *Comparer) pairMapping(in *matrixInputs, ti, ci int, open bool, sl *mappingSlot) (Mapping, bool) {
	if !open {
		return Mapping{}, false
	}
	return mapParametersInto(sl, c.Ont, in.sigs[ti], in.sigs[ci], c.Mode)
}

// alignCell runs the example alignment for one ordered direction.
func (c *Comparer) alignCell(in *matrixInputs, ti, ci int, mapping Mapping, sc *matrixScratch, met *matchMetrics) cell {
	start := time.Now()
	res := CompareKeyedSetsScratch(&sc.cmp, in.ids[ti], in.ids[ci], in.keyed[ti], in.keyed[ci], mapping)
	met.matrixCells.Observe(time.Since(start).Seconds())
	return cell{verdict: res.Verdict, score: res.Score(), compared: res.Compared, agreeing: res.Agreeing, aligned: true}
}

// mappingsInverse reports whether b is exactly the inverse of a on both
// sides — the condition under which an exact-mode alignment may be
// mirrored instead of recomputed.
func mappingsInverse(a, b Mapping) bool {
	if len(a.Inputs) != len(b.Inputs) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for from, to := range a.Inputs {
		if got, ok := b.Inputs[to]; !ok || got != from {
			return false
		}
	}
	for from, to := range a.Outputs {
		if got, ok := b.Outputs[to]; !ok || got != from {
			return false
		}
	}
	return true
}
