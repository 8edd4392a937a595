package metrics

import (
	"reflect"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/typesys"
)

// seqOracle classifies by first letter: A.. -> "alpha", B.. -> "beta",
// C.. -> "gamma"; anything else is outside the domain.
var seqOracle = OracleFunc{
	All: []string{"alpha", "beta", "gamma"},
	Fn: func(in map[string]typesys.Value) (string, bool) {
		s, ok := in["x"].(typesys.StringValue)
		if !ok || len(s) == 0 {
			return "", false
		}
		switch s[0] {
		case 'A':
			return "alpha", true
		case 'B':
			return "beta", true
		case 'C':
			return "gamma", true
		}
		return "", false
	},
}

func exOf(vals ...string) dataexample.Set {
	var s dataexample.Set
	for _, v := range vals {
		s = append(s, dataexample.Example{
			Inputs:  map[string]typesys.Value{"x": typesys.Str(v)},
			Outputs: map[string]typesys.Value{"y": typesys.Str("out-" + v)},
		})
	}
	return s
}

func TestCoveredClasses(t *testing.T) {
	set := exOf("A1", "B1", "A2")
	if got := CoveredClasses(set, seqOracle); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Errorf("CoveredClasses = %v", got)
	}
	if got := CoveredClasses(nil, seqOracle); len(got) != 0 {
		t.Errorf("empty set covered = %v", got)
	}
}

func TestCompleteness(t *testing.T) {
	cases := []struct {
		set  dataexample.Set
		want float64
	}{
		{exOf("A1", "B1", "C1"), 1},
		{exOf("A1", "B1"), 2.0 / 3},
		{exOf("A1"), 1.0 / 3},
		{exOf(), 0},
		{exOf("Z1"), 0}, // unclassifiable example covers nothing
	}
	for i, c := range cases {
		if got := Evaluate(c.set, seqOracle).Completeness; got != c.want {
			t.Errorf("case %d: Completeness = %v, want %v", i, got, c.want)
		}
	}
	empty := OracleFunc{Fn: func(map[string]typesys.Value) (string, bool) { return "", false }}
	if Evaluate(exOf("A1"), empty).Completeness != 1 {
		t.Error("no-class oracle should give vacuous completeness 1")
	}
}

func TestRedundancyAndConciseness(t *testing.T) {
	// 3 examples in alpha, 1 in beta: 2 redundant of 4 -> conciseness 0.5.
	set := exOf("A1", "A2", "A3", "B1")
	if got := RedundantExamples(set, seqOracle); got != 2 {
		t.Errorf("Redundant = %d", got)
	}
	if got := Evaluate(set, seqOracle).Conciseness; got != 0.5 {
		t.Errorf("Conciseness = %v", got)
	}
	// All distinct classes: fully concise.
	if got := Evaluate(exOf("A1", "B1", "C1"), seqOracle).Conciseness; got != 1 {
		t.Errorf("Conciseness = %v", got)
	}
	// Unclassifiable examples never count as redundant.
	if got := RedundantExamples(exOf("Z1", "Z2", "Z3"), seqOracle); got != 0 {
		t.Errorf("Redundant unclassifiable = %d", got)
	}
	// Empty set is vacuously concise.
	if got := Evaluate(nil, seqOracle).Conciseness; got != 1 {
		t.Errorf("Conciseness(empty) = %v", got)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestEvaluate(t *testing.T) {
	set := exOf("A1", "A2", "B1")
	ev := Evaluate(set, seqOracle)
	if ev.Examples != 3 || ev.Classes != 3 || ev.ClassesCovered != 2 || ev.Redundant != 1 {
		t.Errorf("Evaluate counts = %+v", ev)
	}
	if !approx(ev.Completeness, 2.0/3) || !approx(ev.Conciseness, 2.0/3) {
		t.Errorf("Evaluate ratios = %+v", ev)
	}
	// Degenerate cases.
	ev = Evaluate(nil, OracleFunc{Fn: func(map[string]typesys.Value) (string, bool) { return "", false }})
	if ev.Completeness != 1 || ev.Conciseness != 1 {
		t.Errorf("degenerate Evaluate = %+v", ev)
	}
}

// TestPaperDistributionShapes reproduces the arithmetic behind Table 1 and
// Table 2 rows: e.g. a module with 4 classes of which 3 covered scores
// 0.75; a set of 10 examples describing just 1 class scores 0.1.
func TestPaperDistributionShapes(t *testing.T) {
	fourClass := OracleFunc{
		All: []string{"c1", "c2", "c3", "c4"},
		Fn: func(in map[string]typesys.Value) (string, bool) {
			s := in["x"].(typesys.StringValue)
			return "c" + string(s[0]), true
		},
	}
	if got := Evaluate(exOf("1", "2", "3"), fourClass).Completeness; got != 0.75 {
		t.Errorf("0.75 row: got %v", got)
	}

	oneClass := OracleFunc{
		All: []string{"only"},
		Fn:  func(map[string]typesys.Value) (string, bool) { return "only", true },
	}
	set := exOf("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
	if got := Evaluate(set, oneClass).Conciseness; !approx(got, 0.1) {
		t.Errorf("0.1 row: got %v", got)
	}
}
