// Package dedup implements the paper's §8 future work: detecting
// redundant data examples *without* access to ground-truth behaviour
// classes, using duplicate-record-detection techniques in the spirit of
// Elmagarmid et al. (TKDE 2007).
//
// Two data examples are redundant when they describe the same class of
// behaviour. Ground truth for that is unavailable in the field, so the
// detector infers it from the observable artefact: the *relationship*
// between an example's inputs and outputs. Examples whose outputs are
// near-duplicates of each other after abstracting away the input-copied
// material ("template fingerprinting") are very likely exercising the
// same behaviour.
//
// The pipeline follows classical duplicate record detection:
//
//  1. Field extraction — flatten each example's outputs into a record of
//     comparable fields, masking input echoes.
//  2. Pairwise similarity — a blend of token Jaccard and normalised edit
//     distance per field, averaged across fields.
//  3. Clustering — single-linkage over pairs above a threshold.
//
// Each resulting cluster is one inferred behaviour class; every example
// beyond the first in a cluster is flagged redundant. Precision/recall of
// the detector against the catalog's ground truth is measured by the
// dedup ablation bench.
package dedup

import (
	"sort"
	"strings"

	"dexa/internal/dataexample"
	"dexa/internal/typesys"
)

// Options tunes the detector.
type Options struct {
	// Threshold is the minimum pairwise similarity for two examples to be
	// linked into the same inferred behaviour class (default 0.75).
	Threshold float64
	// MaskInputs replaces verbatim occurrences of input values inside
	// output fields with a placeholder before comparison, so examples are
	// compared by their transformation template rather than by the data
	// that happens to flow through them (default true via DefaultOptions).
	MaskInputs bool
}

// DefaultOptions returns the recommended settings.
func DefaultOptions() Options {
	return Options{Threshold: 0.75, MaskInputs: true}
}

// Result reports the detector's findings on one example set.
type Result struct {
	// Clusters groups example indices by inferred behaviour class, each
	// cluster sorted, clusters ordered by first member.
	Clusters [][]int
	// Redundant lists the indices flagged as redundant (every member of a
	// cluster beyond its first), sorted.
	Redundant []int
}

// InferredConciseness is 1 - |Redundant| / n, the detector's estimate of
// the §4.2 conciseness metric.
func (r Result) InferredConciseness(n int) float64 {
	if n == 0 {
		return 1
	}
	return 1 - float64(len(r.Redundant))/float64(n)
}

// Detect clusters the examples into inferred behaviour classes.
func Detect(set dataexample.Set, opts Options) Result {
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultOptions().Threshold
	}
	n := len(set)
	records := make([][]string, n)
	for i, e := range set {
		records[i] = fingerprint(e, opts.MaskInputs)
	}
	// Union-find single linkage.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if recordSimilarity(records[i], records[j]) >= opts.Threshold {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	res := Result{}
	for _, r := range roots {
		members := groups[r]
		sort.Ints(members)
		res.Clusters = append(res.Clusters, members)
		res.Redundant = append(res.Redundant, members[1:]...)
	}
	sort.Ints(res.Redundant)
	return res
}

// fingerprint flattens an example's outputs into comparable string
// fields, optionally masking verbatim input echoes.
func fingerprint(e dataexample.Example, maskInputs bool) []string {
	var inputs []string
	if maskInputs {
		for _, v := range e.Inputs {
			inputs = append(inputs, flatten(v)...)
		}
		// Mask longer fragments first so substrings of other inputs do not
		// shred the placeholder.
		sort.Slice(inputs, func(i, j int) bool { return len(inputs[i]) > len(inputs[j]) })
	}
	names := make([]string, 0, len(e.Outputs))
	for name := range e.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	var fields []string
	for _, name := range names {
		for _, piece := range flatten(e.Outputs[name]) {
			for _, in := range inputs {
				if len(in) >= 4 {
					piece = strings.ReplaceAll(piece, in, "⟨IN⟩")
				}
			}
			fields = append(fields, name+"="+piece)
		}
	}
	return fields
}

// flatten renders a value into primitive string pieces.
func flatten(v typesys.Value) []string {
	switch w := v.(type) {
	case typesys.ListValue:
		var out []string
		for _, it := range w.Items {
			out = append(out, flatten(it)...)
		}
		if len(out) == 0 {
			out = []string{"⟨EMPTY⟩"}
		}
		return out
	case typesys.RecordValue:
		var out []string
		for _, name := range w.Names() {
			fv, _ := w.Get(name)
			for _, piece := range flatten(fv) {
				out = append(out, name+":"+piece)
			}
		}
		return out
	case nil:
		return nil
	default:
		return []string{v.String()}
	}
}

// recordSimilarity compares two field records: greedy best-pair matching
// of fields, averaging a token/edit blend, penalised by unmatched fields.
func recordSimilarity(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	used := make([]bool, len(b))
	total := 0.0
	for _, fa := range a {
		best, bestJ := 0.0, -1
		for j, fb := range b {
			if used[j] {
				continue
			}
			if s := fieldSimilarity(fa, fb); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
			total += best
		}
	}
	denom := float64(len(a))
	if len(b) > len(a) {
		denom = float64(len(b))
	}
	return total / denom
}

// fieldSimilarity blends token Jaccard with a normalised common-prefix/
// suffix measure — cheap, order-insensitive, and robust to value noise.
// Fields that become identical after digit folding (P00001 vs P00042) are
// treated as near-duplicates: numeric payloads are the most common
// non-informative variation in identifier-shaped outputs (a standard
// canonicalisation in duplicate record detection).
func fieldSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	if digitFold(a) == digitFold(b) {
		return 0.95
	}
	ta, tb := tokens(a), tokens(b)
	inter, union := 0, 0
	seen := map[string]int{}
	for _, t := range ta {
		seen[t]++
	}
	union = len(seen)
	seenB := map[string]bool{}
	for _, t := range tb {
		if seenB[t] {
			continue
		}
		seenB[t] = true
		if seen[t] > 0 {
			inter++
		} else {
			union++
		}
	}
	jac := 0.0
	if union > 0 {
		jac = float64(inter) / float64(union)
	}
	affix := affixSimilarity(a, b)
	return 0.6*jac + 0.4*affix
}

// digitFold replaces every digit with '#'.
func digitFold(s string) string {
	out := []byte(s)
	for i := 0; i < len(out); i++ {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '#'
		}
	}
	return string(out)
}

func tokens(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		switch r {
		case ' ', '\t', '\n', '=', ':', ';', ',', '|', '/', '(', ')', '"', '\'':
			return true
		}
		return false
	})
}

// affixSimilarity measures shared prefix+suffix length relative to the
// longer string — the signature of two outputs produced by the same
// template around different payloads.
func affixSimilarity(a, b string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	s := 0
	for s < len(a)-p && s < len(b)-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	longer := len(a)
	if len(b) > longer {
		longer = len(b)
	}
	return float64(p+s) / float64(longer)
}
