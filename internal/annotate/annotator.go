package annotate

import (
	"sort"

	"dexa/internal/ontology"
)

// Suggestion is one ranked annotation candidate for a parameter.
type Suggestion struct {
	Concept string
	Score   float64
}

// Annotator suggests ontology concepts for module parameters.
type Annotator struct {
	ont *ontology.Ontology
}

// NewAnnotator builds an annotator over the given ontology.
func NewAnnotator(ont *ontology.Ontology) *Annotator {
	return &Annotator{ont: ont}
}

// Suggest returns the k best concept suggestions for the given parameter
// name, ordered by descending score. Each concept is scored by the better
// similarity of its ID and its label.
func (a *Annotator) Suggest(paramName string, k int) []Suggestion {
	if k <= 0 {
		return nil
	}
	var out []Suggestion
	for _, id := range a.ont.Concepts() {
		c, _ := a.ont.Concept(id)
		best := Similarity(paramName, id)
		if c.Label != "" {
			if s := Similarity(paramName, c.Label); s > best {
				best = s
			}
		}
		out = append(out, Suggestion{Concept: id, Score: best})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Concept < out[j].Concept
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
