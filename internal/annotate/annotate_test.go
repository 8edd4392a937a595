package annotate

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dexa/internal/ontology"
)

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"getProteinSequence":    {"get", "protein", "sequence"},
		"GetRecord":             {"get", "record"},
		"DNASequence":           {"dna", "sequence"},
		"peptide_masses":        {"peptide", "masses"},
		"blast-report":          {"blast", "report"},
		"uniprot.accession":     {"uniprot", "accession"},
		"seq2prot":              {"seq", "2", "prot"},
		"getPDBEntry":           {"get", "pdb", "entry"},
		"v2":                    {"v", "2"},
		"":                      nil,
		"___":                   nil,
		"simple":                {"simple"},
		"Protein Sequence":      {"protein", "sequence"},
		"get_genes_by_enzyme42": {"get", "genes", "by", "enzyme", "42"},
	}
	for in, want := range cases {
		if got := Tokenize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"protein", "protein", 0},
		{"protein", "proteins", 1},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSimilarityProperties(t *testing.T) {
	words := []string{"protein", "sequence", "dna", "accession", "record", "blast", "", "a", "getRecord"}
	r := rand.New(rand.NewSource(9))
	pick := func() string { return words[r.Intn(len(words))] }
	symmetric := func() bool {
		a, b := pick(), pick()
		return DiceBigram(a, b) == DiceBigram(b, a) &&
			Levenshtein(a, b) == Levenshtein(b, a) &&
			TokenJaccard(a, b) == TokenJaccard(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	bounded := func() bool {
		a, b := pick(), pick()
		for _, s := range []float64{DiceBigram(a, b), LevenshteinSimilarity(a, b), TokenJaccard(a, b), Similarity(a, b)} {
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, w := range words {
		if w == "" {
			continue
		}
		if DiceBigram(w, w) != 1 || LevenshteinSimilarity(w, w) != 1 || TokenJaccard(w, w) != 1 {
			t.Errorf("self-similarity of %q should be 1", w)
		}
	}
}

func TestSimilarityEdgeCases(t *testing.T) {
	if DiceBigram("a", "a") != 1 || DiceBigram("a", "b") != 0 {
		t.Error("short-string dice")
	}
	if LevenshteinSimilarity("", "") != 1 {
		t.Error("empty lev sim")
	}
	if TokenJaccard("", "") != 1 {
		t.Error("empty token jaccard")
	}
	if TokenJaccard("_", "_") != 1 && TokenJaccard("_", "_") != 0 {
		// Both tokenless but equal strings: defined as equality check.
		t.Error("tokenless jaccard")
	}
	if got := TokenJaccard("protein_sequence", "ProteinSequence"); got != 1 {
		t.Errorf("naming-convention-insensitive jaccard = %v", got)
	}
}

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New("mygrid")
	o.MustAddConcept("BioinformaticsData", "Bioinformatics data")
	o.MustAddConcept("BioSequence", "Biological sequence", "BioinformaticsData")
	o.MustAddConcept("ProteinSequence", "Protein sequence", "BioSequence")
	o.MustAddConcept("DNASequence", "DNA sequence", "BioSequence")
	o.MustAddConcept("Accession", "Accession number", "BioinformaticsData")
	o.MustAddConcept("UniprotRecord", "Uniprot protein record", "BioinformaticsData")
	return o
}

func TestSuggest(t *testing.T) {
	a := NewAnnotator(testOntology(t))
	sug := a.Suggest("protein_sequence", 3)
	if len(sug) != 3 {
		t.Fatalf("suggestions = %v", sug)
	}
	if sug[0].Concept != "ProteinSequence" {
		t.Errorf("top suggestion = %+v", sug[0])
	}
	if sug[0].Score <= sug[1].Score-1e-12 {
		t.Errorf("ranking not descending: %v", sug)
	}
	if got := a.Suggest("x", 0); got != nil {
		t.Error("k=0 should return nil")
	}
	// Label matching: "uniprot protein record" should match UniprotRecord.
	sug = a.Suggest("uniprot protein record", 1)
	if sug[0].Concept != "UniprotRecord" {
		t.Errorf("label match = %+v", sug[0])
	}
}
