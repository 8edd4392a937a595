package dedup

import (
	"fmt"
	"reflect"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/typesys"
)

func ex(in, out string) dataexample.Example {
	return dataexample.Example{
		Inputs:  map[string]typesys.Value{"x": typesys.Str(in)},
		Outputs: map[string]typesys.Value{"y": typesys.Str(out)},
	}
}

func TestDetectTemplateRedundancy(t *testing.T) {
	// Three examples produced by the same template around different
	// payloads, one by a genuinely different behaviour.
	set := dataexample.Set{
		ex("ACGTACGT", "SUMMARY kind=dna bytes=8 head=ACGTACGT"),
		ex("TTTTCCCC", "SUMMARY kind=dna bytes=8 head=TTTTCCCC"),
		ex("GGGGAAAA", "SUMMARY kind=dna bytes=8 head=GGGGAAAA"),
		ex("MKTWYENP", "ERROR unsupported alphabet"),
	}
	res := Detect(set, DefaultOptions())
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if !reflect.DeepEqual(res.Clusters[0], []int{0, 1, 2}) {
		t.Errorf("template cluster = %v", res.Clusters[0])
	}
	if !reflect.DeepEqual(res.Redundant, []int{1, 2}) {
		t.Errorf("redundant = %v", res.Redundant)
	}
	if got := res.InferredConciseness(len(set)); got != 0.5 {
		t.Errorf("inferred conciseness = %v", got)
	}
}

func TestDetectMasksInputEchoes(t *testing.T) {
	// Identity-like outputs: without masking every pair looks different;
	// with masking they collapse into one behaviour.
	set := dataexample.Set{
		ex("AAAAAAAAAA", "record of AAAAAAAAAA end"),
		ex("CCCCCCCCCC", "record of CCCCCCCCCC end"),
	}
	masked := Detect(set, Options{Threshold: 0.75, MaskInputs: true})
	if len(masked.Clusters) != 1 {
		t.Errorf("masked clusters = %v", masked.Clusters)
	}
	unmasked := Detect(set, Options{Threshold: 0.95, MaskInputs: false})
	if len(unmasked.Clusters) != 2 {
		t.Errorf("unmasked clusters = %v", unmasked.Clusters)
	}
}

func TestDetectEdgeCases(t *testing.T) {
	if res := Detect(nil, DefaultOptions()); len(res.Clusters) != 0 || len(res.Redundant) != 0 {
		t.Errorf("empty set: %v", res)
	}
	if got := (Result{}).InferredConciseness(0); got != 1 {
		t.Errorf("vacuous conciseness = %v", got)
	}
	one := dataexample.Set{ex("a", "b")}
	res := Detect(one, Options{}) // zero threshold falls back to default
	if len(res.Clusters) != 1 || len(res.Redundant) != 0 {
		t.Errorf("singleton: %v", res)
	}
}

func TestDetectListsAndRecords(t *testing.T) {
	mk := func(items ...string) dataexample.Example {
		vals := make([]typesys.Value, len(items))
		for i, s := range items {
			vals[i] = typesys.Str(s)
		}
		return dataexample.Example{
			Inputs: map[string]typesys.Value{"q": typesys.Str("ignored")},
			Outputs: map[string]typesys.Value{
				"hits": typesys.MustList(typesys.StringType, vals...),
				"meta": typesys.MustRecord(typesys.RecordEntry{Name: "algo", Val: typesys.Str("sw")}),
			},
		}
	}
	set := dataexample.Set{mk("P00001", "P00002"), mk("P00003", "P00004")}
	res := Detect(set, DefaultOptions())
	if len(res.Clusters) != 1 {
		t.Errorf("accession-list outputs should cluster: %v", res.Clusters)
	}
	// Empty lists fingerprint distinctly but deterministically.
	empty := dataexample.Example{
		Inputs:  map[string]typesys.Value{"q": typesys.Str("z")},
		Outputs: map[string]typesys.Value{"hits": typesys.MustList(typesys.StringType), "meta": typesys.Str("x")},
	}
	got := fingerprint(empty, true)
	if len(got) != 2 || got[0] != "hits=⟨EMPTY⟩" {
		t.Errorf("empty-list fingerprint = %v", got)
	}
}

func TestFieldSimilarityProperties(t *testing.T) {
	pairs := []struct {
		a, b string
		min  float64
		max  float64
	}{
		{"same", "same", 1, 1},
		{"", "", 1, 1},
		{"abc", "", 0, 0.01},
		{"SUMMARY kind=dna bytes=8", "SUMMARY kind=rna bytes=9", 0.4, 0.99},
		{"totally", "unrelated!", 0, 0.4},
	}
	for _, p := range pairs {
		got := fieldSimilarity(p.a, p.b)
		if got < p.min || got > p.max {
			t.Errorf("fieldSimilarity(%q, %q) = %v, want in [%v, %v]", p.a, p.b, got, p.min, p.max)
		}
		if fieldSimilarity(p.a, p.b) != fieldSimilarity(p.b, p.a) {
			t.Errorf("similarity not symmetric for %q/%q", p.a, p.b)
		}
	}
}

func TestRecordSimilarityShapes(t *testing.T) {
	if recordSimilarity(nil, nil) != 1 {
		t.Error("empty records identical")
	}
	if recordSimilarity([]string{"a"}, nil) != 0 {
		t.Error("one empty record")
	}
	// Unmatched extra fields drag similarity down.
	a := []string{"y=SUMMARY kind=dna", "z=extra field one", "w=extra field two"}
	b := []string{"y=SUMMARY kind=dna"}
	if got := recordSimilarity(a, b); got > 0.5 {
		t.Errorf("extra fields should penalise: %v", got)
	}
}

func TestDetectScalesQuadraticallyButFast(t *testing.T) {
	templates := []string{
		"ALIGNMENT hits for %s ranked by score",
		"FASTA export >%s| sixty columns",
		"lookup failure: nothing known about %s",
	}
	var set dataexample.Set
	for i := 0; i < 120; i++ {
		in := fmt.Sprintf("INPUTSEQ%04d", i)
		set = append(set, ex(in, fmt.Sprintf(templates[i%3], in)))
	}
	res := Detect(set, DefaultOptions())
	if len(res.Clusters) != 3 {
		t.Errorf("clusters = %d, want 3 templates", len(res.Clusters))
	}
	if got := res.InferredConciseness(len(set)); got < 0.02 || got > 0.03 {
		t.Errorf("inferred conciseness = %v, want 3/120", got)
	}
}
