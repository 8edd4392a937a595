// Package annotate implements the parameter-annotation assistant of the
// system architecture (Figure 3, step 1): given an unannotated module and
// a domain ontology, it suggests an ordered list of concepts per parameter
// using schema-matching techniques (name tokenisation plus string
// similarity), in the style of Meteor-S and Radiant.
//
// The curator remains in the loop: Suggest returns ranked candidates,
// and the curator decides which to apply. The generation heuristic
// (package core) consumes the resulting annotations.
package annotate

import (
	"strings"
	"unicode"
)

// Tokenize splits an identifier into lower-cased word tokens, handling
// camelCase, PascalCase, snake_case, kebab-case, dotted.names and digit
// boundaries: "getProteinSequence_v2" -> ["get", "protein", "sequence",
// "v", "2"].
func Tokenize(s string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case r == '_' || r == '-' || r == '.' || r == ' ' || r == '/':
			flush()
		case unicode.IsDigit(r):
			if cur.Len() > 0 && !unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		case unicode.IsUpper(r):
			// Split at lower->Upper and at Upper->Upper followed by lower
			// ("DNASequence" -> "DNA", "Sequence").
			if cur.Len() > 0 {
				prev := runes[i-1]
				nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
				if unicode.IsLower(prev) || unicode.IsDigit(prev) || (unicode.IsUpper(prev) && nextLower) {
					flush()
				}
			}
			cur.WriteRune(r)
		default:
			if cur.Len() > 0 && unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		}
	}
	flush()
	return tokens
}

// Levenshtein returns the edit distance between two strings (unit costs).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// LevenshteinSimilarity normalises edit distance into [0, 1]: 1 for equal
// strings, 0 for maximally different. Two empty strings score 1.
func LevenshteinSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// DiceBigram returns the Sørensen–Dice coefficient over character bigrams,
// a standard schema-matching string measure. Strings shorter than 2 runes
// compare by equality.
func DiceBigram(a, b string) float64 {
	ba, bb := bigrams(a), bigrams(b)
	if len(ba) == 0 || len(bb) == 0 {
		if a == b {
			return 1
		}
		return 0
	}
	inter := 0
	counts := map[string]int{}
	for _, g := range ba {
		counts[g]++
	}
	for _, g := range bb {
		if counts[g] > 0 {
			counts[g]--
			inter++
		}
	}
	return 2 * float64(inter) / float64(len(ba)+len(bb))
}

func bigrams(s string) []string {
	r := []rune(strings.ToLower(s))
	if len(r) < 2 {
		return nil
	}
	out := make([]string, len(r)-1)
	for i := 0; i < len(r)-1; i++ {
		out[i] = string(r[i : i+2])
	}
	return out
}

// TokenJaccard returns the Jaccard coefficient between the token sets of
// the two identifiers. Two tokenless strings score 1 when equal.
func TokenJaccard(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		if a == b {
			return 1
		}
		return 0
	}
	set := map[string]bool{}
	for _, t := range ta {
		set[t] = true
	}
	inter, union := 0, len(set)
	seen := map[string]bool{}
	for _, t := range tb {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Similarity is the combined schema-matching score used for ranking: a
// weighted blend of bigram Dice (captures morphology), normalised
// Levenshtein (captures near-misses) and token Jaccard (captures word
// overlap across naming conventions).
func Similarity(a, b string) float64 {
	na := strings.Join(Tokenize(a), " ")
	nb := strings.Join(Tokenize(b), " ")
	return 0.5*DiceBigram(na, nb) + 0.2*LevenshteinSimilarity(na, nb) + 0.3*TokenJaccard(a, b)
}
