package match

import (
	"context"

	"dexa/internal/module"
)

// IncrementalMatrix builds matrices through its Comparer and holds no
// state between calls.
//
// Deprecated: call Comparer.MatchMatrixFromKeyedSets directly; a build
// costs time proportional to the feasible pairs, so there is nothing to
// reuse between builds.
type IncrementalMatrix struct{ cmp *Comparer }

// NewIncrementalMatrix wraps a Comparer.
func NewIncrementalMatrix(cmp *Comparer) *IncrementalMatrix { return &IncrementalMatrix{cmp: cmp} }

// Matrix is a fresh MatchMatrixFromKeyedSets build.
func (im *IncrementalMatrix) Matrix(ctx context.Context, mods []*module.Module, source KeyedSource) (*MatchMatrix, error) {
	return im.cmp.MatchMatrixFromKeyedSets(ctx, mods, source)
}
