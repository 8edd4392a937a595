package match

import (
	"context"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/telemetry"
)

// IncrementalMatrix is the match-matrix builder. Every Matrix call
// returns exactly the matrix a build from nothing returns (cells, order
// and Stats), but it costs in proportion to what changed since the
// previous call, because the builder keeps two things between calls:
//
//   - the signature plan (matrixPlan): which ordered pairs the catalog
//     index leaves open, read from one index snapshot. It depends on the
//     mode, the ontology, the index and its generation, and the resolved
//     modules, and is kept while all of them stay the same;
//   - the cells of every pair the last build visited, beside the keyed
//     sets they were aligned from. A pair is aligned again only when
//     either side's keyed set or module pointer differs, or the last
//     build did not visit it; every other pair's cells are copied. Keyed
//     sets are immutable and the builder holds the ones it aligned, so
//     an unchanged pointer means unchanged content. The open directions
//     need no check: the index is sound, so a direction it closes could
//     not have mapped, and its cell is Incomparable either way.
//
// Both are dropped wholesale on a mode or ontology change. What is kept
// is one build's worth: the plan's bitsets (2·n·⌈n/64⌉ words), one
// pairCells per visited pair, and a reference to each module's last
// aligned set, which keeps a replaced set alive until the next call.
//
// Matrix calls on one builder are serialised. A builder with no state is
// a fresh build, which is what MatchMatrixFromKeyedSets runs.
type IncrementalMatrix struct {
	cmp *Comparer

	mu    sync.Mutex
	plan  *matrixPlan
	keyed []*dataexample.KeyedSet // the sets pairs were aligned from, parallel to plan.sigs
	pairs []pairCells             // the cells of plan's visited pairs
}

// NewIncrementalMatrix returns a builder with no kept state over the
// Comparer's ontology, mode, index, workers and metrics, read at every
// Matrix call.
func NewIncrementalMatrix(cmp *Comparer) *IncrementalMatrix { return &IncrementalMatrix{cmp: cmp} }

// matrixPlan is the signature half of a build: the resolved modules and
// the directions between them the index leaves open.
type matrixPlan struct {
	mode  Mode
	ont   *ontology.Ontology
	index *CatalogIndex
	gen   uint64 // the index generation open was read at
	sigs  []*module.Module
	w     int      // bitset words per row
	open  []uint64 // row a, bit b: direction (a, b) is open
	visit []uint64 // open made symmetric: the pair {a, b} is open at least one way
	start []int    // start[a]: index of row a's first pair a < b; start[n]: the pair count
}

// newMatrixPlan reads every row's open directions from one index
// snapshot, under the same read lock as the generation it records.
func newMatrixPlan(c *Comparer, sigs []*module.Module) *matrixPlan {
	n := len(sigs)
	w := (n + 63) / 64
	p := &matrixPlan{mode: c.Mode, ont: c.Ont, index: c.Index, sigs: sigs, w: w}
	p.open, p.gen = c.Index.openRows(sigs, c.Mode)
	p.visit = make([]uint64, n*w)
	for a := 0; a < n; a++ {
		forBits(p.open[a*w:(a+1)*w], 0, func(b int) {
			if a != b {
				setBit(p.visit[a*w:], b)
				setBit(p.visit[b*w:], a)
			}
		})
	}
	p.start = make([]int, n+1)
	for a := 0; a < n; a++ {
		p.start[a+1] = p.start[a] + countBits(p.visit[a*w:(a+1)*w], a+1)
	}
	return p
}

// fits reports whether the plan still holds for these modules under c.
func (p *matrixPlan) fits(c *Comparer, sigs []*module.Module) bool {
	return p != nil && p.mode == c.Mode && p.ont == c.Ont && p.index == c.Index &&
		p.gen == c.Index.Generation() && slices.Equal(p.sigs, sigs)
}

func (p *matrixPlan) isOpen(a, b int) bool { return hasBit(p.open[a*p.w:], b) }

// pairAt returns the index of the visited pair (a, b), a < b.
func (p *matrixPlan) pairAt(a, b int) (int, bool) {
	row := p.visit[a*p.w : (a+1)*p.w]
	if !hasBit(row, b) {
		return 0, false
	}
	return p.start[a] + countBits(row, a+1) - countBits(row, b), true
}

// pairRef names one pair a build aligns: its index in the pairs and its
// two rows.
type pairRef struct{ k, a, b int }

// Matrix builds the matrix over mods and source (see
// MatchMatrixFromKeyedSets), realigning only the pairs whose inputs
// changed since the previous call.
func (im *IncrementalMatrix) Matrix(ctx context.Context, mods []*module.Module, source KeyedSource) (*MatchMatrix, error) {
	_, span := telemetry.StartSpan(ctx, "match.matrix")
	defer span.End()

	in := resolveMatrixInputs(mods, source)
	n := len(in.ids)
	mm := &MatchMatrix{
		Mode:    im.cmp.Mode.String(),
		Modules: in.ids,
		Missing: in.missing,
		Cells:   []MatrixCell{},
		Stats:   MatrixStats{Modules: n, Pairs: n * (n - 1)},
	}
	if n < 2 {
		return mm, ctx.Err()
	}

	im.mu.Lock()
	defer im.mu.Unlock()
	c := im.cmp
	met := newMatchMetrics(c.Metrics)
	p := im.plan
	if !p.fits(c, in.sigs) {
		p = newMatrixPlan(c, in.sigs)
	}
	pairs, todo := im.reuse(p, &in)
	aligned := c.alignPairs(ctx, p, &in, pairs, todo, &met)
	if err := ctx.Err(); err != nil {
		// A kept plan's pairs may be half realigned in place.
		im.plan, im.keyed, im.pairs = nil, nil, nil
		return nil, err
	}
	im.plan, im.keyed, im.pairs = p, in.keyed, pairs

	emitCells(mm, p, pairs, in.ids)
	st := &mm.Stats
	reused := len(pairs) - len(todo)
	met.comparisons.Add(uint64(aligned))
	met.pruned.Add(uint64(st.Pruned))
	met.reusedPairs.Add(uint64(reused))
	span.Annotate("modules", strconv.Itoa(n))
	span.Annotate("pairs", strconv.Itoa(st.Pairs))
	span.Annotate("pruned", strconv.Itoa(st.Pruned))
	span.Annotate("compared", strconv.Itoa(st.Compared))
	span.Annotate("mirrored", strconv.Itoa(st.Mirrored))
	span.Annotate("realigned", strconv.Itoa(len(todo)))
	span.Annotate("reused", strconv.Itoa(reused))
	return mm, nil
}

// reuse lays out the cells of every pair plan p visits: a pair whose
// modules and keyed sets both equal those of a pair the kept state
// aligned gets that pair's cells, and every other pair is
// returned in todo. Rows of the kept plan are matched to p's by a merge
// over the two ID-sorted module columns, requiring the same module
// pointer; when p is the kept plan itself that is the identity, and the
// kept pairs are reused in place.
func (im *IncrementalMatrix) reuse(p *matrixPlan, in *matrixInputs) (pairs []pairCells, todo []pairRef) {
	n := len(p.sigs)
	old := im.plan
	if old == p {
		pairs = im.pairs
	} else {
		pairs = make([]pairCells, p.start[n])
	}
	if old != nil && (old.mode != p.mode || old.ont != p.ont) {
		old = nil
	}
	// at[a] is row a's row in the kept plan, -1 when it has none or its
	// module or set changed.
	var at []int
	if old != nil {
		at = make([]int, n)
		for a, i := 0, 0; a < n; a++ {
			at[a] = -1
			for i < len(old.sigs) && old.sigs[i].ID < in.ids[a] {
				i++
			}
			if i < len(old.sigs) && old.sigs[i] == p.sigs[a] && im.keyed[i] == in.keyed[a] {
				at[a] = i
			}
		}
	}
	for a := 0; a < n; a++ {
		k := p.start[a]
		forBits(p.visit[a*p.w:(a+1)*p.w], a+1, func(b int) {
			if j, ok := keptPair(old, at, a, b); ok {
				pairs[k] = im.pairs[j] // j == k when updating in place
			} else {
				todo = append(todo, pairRef{k, a, b})
			}
			k++
		})
	}
	return pairs, todo
}

// keptPair returns the index of the kept pair whose cells p's pair
// (a, b) can take: both rows are kept unchanged and the kept plan
// visited the pair.
func keptPair(old *matrixPlan, at []int, a, b int) (int, bool) {
	if old == nil || at[a] < 0 || at[b] < 0 {
		return 0, false
	}
	return old.pairAt(at[a], at[b])
}

// alignPairs computes the cells of the todo pairs on c.Workers workers,
// each claiming pairs through an atomic counter with its own scratch, so
// a warm sweep allocates nothing per pair. It returns how many ordered
// directions it aligned.
func (c *Comparer) alignPairs(ctx context.Context, p *matrixPlan, in *matrixInputs, pairs []pairCells, todo []pairRef, met *matchMetrics) int {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	sweep := func() {
		var sc matrixScratch
		for {
			i := int(next.Add(1)) - 1
			if i >= len(todo) || ctx.Err() != nil {
				return
			}
			r := todo[i]
			pairs[r.k].fwd, pairs[r.k].rev = c.computePair(in, r.a, r.b, p.isOpen(r.a, r.b), p.isOpen(r.b, r.a), &sc, met)
		}
	}
	if workers = min(workers, len(todo)); workers <= 1 {
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
	aligned := 0
	for _, r := range todo {
		if pairs[r.k].fwd.aligned {
			aligned++
		}
		if pairs[r.k].rev.aligned {
			aligned++
		}
	}
	return aligned
}

// emitCells writes the matrix's cells and Stats from the visited pairs,
// row by row in (target, candidate) order. Row t's cells with candidate
// c > t are the fwd cells of its own pairs, in order. Those with c < t
// are the rev cells of pairs (c, t), and pair (c, t) is always the next
// one of row c not yet emitted, because every row before t has already
// consumed its own. A pair never visited is pruned both ways, and a
// direction with no cell is Incomparable, so both counts follow from the
// visited pairs.
func emitCells(mm *MatchMatrix, p *matrixPlan, pairs []pairCells, ids []string) {
	n := len(ids)
	kept := 0
	for _, pc := range pairs {
		if pc.fwd.verdict != Incomparable {
			kept++
		}
		if pc.rev.verdict != Incomparable {
			kept++
		}
	}
	mm.Cells = make([]MatrixCell, 0, kept)
	st := &mm.Stats
	st.Pruned = st.Pairs - 2*len(pairs)
	nextRev := append([]int(nil), p.start[:n]...)
	for t := 0; t < n; t++ {
		k := p.start[t]
		forBits(p.visit[t*p.w:(t+1)*p.w], 0, func(c int) {
			var cl cell
			if c < t {
				cl = pairs[nextRev[c]].rev
				nextRev[c]++
			} else {
				cl = pairs[k].fwd
				k++
			}
			switch {
			case !p.isOpen(t, c):
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
				Target:    ids[t],
				Candidate: ids[c],
				Verdict:   cl.verdict.String(),
				Score:     cl.score,
				Compared:  cl.compared,
				Agreeing:  cl.agreeing,
			})
		})
	}
	st.Incomparable = st.Pairs - st.Equivalent - st.Overlapping - st.Disjoint
}
