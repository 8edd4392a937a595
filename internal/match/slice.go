package match

import (
	"context"
	"sort"

	"dexa/internal/module"
	"dexa/internal/telemetry"
)

// Sharded matrix builds: a cluster splits the all-pairs sweep by giving
// each shard a slice of the unordered pairs. The owner of a pair is the
// lexicographically smaller of its two module IDs — module IDs are the
// sweep's row order, so partitioning by owner partitions the rows of the
// upper triangle. Each shard computes exactly the cells the single-node
// sweep would have produced for its pairs (the mirroring decision inside
// computePair is per-pair deterministic), so concatenating the slices and
// re-sorting by (target, candidate) rebuilds the oracle matrix byte for
// byte, and the per-slice stats sum to the oracle stats.

// MatchMatrixSlice materialises the slice of the all-pairs verdict map
// covering the unordered pairs whose owner — the smaller module ID —
// satisfies assigned. Both ordered cells of every owned pair are computed
// and emitted; Stats count only the owned pairs. Modules and Missing
// describe the full universe and are identical across slices.
func (c *Comparer) MatchMatrixSlice(ctx context.Context, mods []*module.Module, source KeyedSource, assigned func(id string) bool) (*MatchMatrix, error) {
	_, span := telemetry.StartSpan(ctx, "match.matrix_slice")
	defer span.End()

	in := resolveMatrixInputs(mods, source)
	n := len(in.ids)
	own := make([]bool, n)
	pairs := 0
	for i, id := range in.ids {
		if assigned(id) {
			own[i] = true
			pairs += 2 * (n - 1 - i) // both directions of each owned pair
		}
	}
	mm := &MatchMatrix{
		Mode:    c.Mode.String(),
		Modules: in.ids,
		Missing: in.missing,
		Cells:   []MatrixCell{},
		Stats:   MatrixStats{Modules: n, Pairs: pairs},
	}
	if n < 2 || pairs == 0 {
		return mm, ctx.Err()
	}
	if err := c.buildMatrix(ctx, span, mm, &in, own); err != nil {
		return nil, err
	}
	return mm, nil
}

// MergeMatrixSlices rebuilds the full matrix from shard slices: cells are
// concatenated and re-sorted into the oracle's row-major (target,
// candidate) order, stats are summed pairwise (each unordered pair is
// owned by exactly one slice, so the sums reproduce the single-node
// counts), and Modules/Missing — identical on every slice — come from the
// first. A merge over every shard of a complete ring is byte-identical to
// the single-node build.
func MergeMatrixSlices(slices []*MatchMatrix) *MatchMatrix {
	mm := &MatchMatrix{Cells: []MatrixCell{}}
	for i, sl := range slices {
		if sl == nil {
			continue
		}
		if mm.Mode == "" {
			mm.Mode = sl.Mode
		}
		if i == 0 || mm.Modules == nil {
			mm.Modules = sl.Modules
			mm.Missing = sl.Missing
			mm.Stats.Modules = sl.Stats.Modules
		}
		mm.Cells = append(mm.Cells, sl.Cells...)
		mm.Stats.Pairs += sl.Stats.Pairs
		mm.Stats.Pruned += sl.Stats.Pruned
		mm.Stats.Compared += sl.Stats.Compared
		mm.Stats.Mirrored += sl.Stats.Mirrored
		mm.Stats.Incomparable += sl.Stats.Incomparable
		mm.Stats.Equivalent += sl.Stats.Equivalent
		mm.Stats.Overlapping += sl.Stats.Overlapping
		mm.Stats.Disjoint += sl.Stats.Disjoint
	}
	sort.Slice(mm.Cells, func(i, j int) bool {
		a, b := mm.Cells[i], mm.Cells[j]
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Candidate < b.Candidate
	})
	return mm
}
