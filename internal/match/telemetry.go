package match

import "dexa/internal/telemetry"

// matchMetrics holds the matcher's instrument handles. Built from a
// (possibly nil) registry: every handle is nil-safe, so an
// uninstrumented Comparer records nothing at zero cost.
type matchMetrics struct {
	// searches counts substitute searches; comparisons counts candidate
	// comparisons actually performed; pruned counts candidates the
	// signature index rejected before any example comparison.
	searches    *telemetry.Counter
	comparisons *telemetry.Counter
	pruned      *telemetry.Counter
	// reusedPairs counts matrix pairs whose cells a rebuild copied from
	// the previous build instead of aligning them again.
	reusedPairs *telemetry.Counter
	// matrixCells observes the latency of one all-pairs matrix cell
	// (mapping + example alignment), in seconds.
	matrixCells *telemetry.Histogram
}

func newMatchMetrics(r *telemetry.Registry) matchMetrics {
	return matchMetrics{
		searches:    r.Counter("dexa_match_searches_total", "Substitute searches performed."),
		comparisons: r.Counter("dexa_match_comparisons_total", "Candidate example comparisons performed."),
		pruned:      r.Counter("dexa_match_pruned_total", "Candidates pruned by the signature index before example comparison."),
		reusedPairs: r.Counter("dexa_match_matrix_reused_pairs_total", "Match-matrix pairs a rebuild copied from the previous build instead of realigning."),
		matrixCells: r.Histogram("dexa_match_matrix_cell_seconds", "Latency of one match-matrix cell (mapping + example alignment).", nil),
	}
}
