package match

import (
	"context"
	"sort"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/module"
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
	in := matrixInputs{
		ids:   make([]string, 0, len(mods)),
		sigs:  make([]*module.Module, 0, len(mods)),
		keyed: make([]*dataexample.KeyedSet, 0, len(mods)),
	}
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
	// Sort the three columns together by module ID; a registry lists its
	// modules sorted already.
	if !sort.IsSorted(byMatrixID{&in}) {
		sort.Sort(byMatrixID{&in})
	}
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
// every other pair is pruned without a mapping attempt. Beyond the
// feasibility queries a build costs O(n + feasible pairs).
//
// It is an IncrementalMatrix build from no kept state; a caller that
// builds repeatedly over slowly changing sets keeps one IncrementalMatrix
// instead and pays only for the pairs that changed.
func (c *Comparer) MatchMatrixFromKeyedSets(ctx context.Context, mods []*module.Module, source KeyedSource) (*MatchMatrix, error) {
	return NewIncrementalMatrix(c).Matrix(ctx, mods, source)
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
