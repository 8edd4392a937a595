package dataexample

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dexa/internal/typesys"
)

func ex(in, out map[string]typesys.Value) Example {
	return Example{Inputs: in, Outputs: out}
}

func TestInputKeyAlignment(t *testing.T) {
	a := ex(map[string]typesys.Value{"x": typesys.Str("P1"), "y": typesys.Intv(2)},
		map[string]typesys.Value{"o": typesys.Str("r1")})
	b := ex(map[string]typesys.Value{"y": typesys.Intv(2), "x": typesys.Str("P1")},
		map[string]typesys.Value{"o": typesys.Str("r2")})
	if a.InputKey() != b.InputKey() {
		t.Error("same input assignment must yield same key regardless of map order")
	}
	if a.OutputKey() == b.OutputKey() {
		t.Error("different outputs must yield different output keys")
	}
	if a.Equal(b) {
		t.Error("examples with different outputs are not equal")
	}
	if !a.SameOutputs(a) || a.SameOutputs(b) {
		t.Error("SameOutputs misbehaves")
	}
}

func TestInputKeyParamNameAmbiguity(t *testing.T) {
	// Parameter naming must be length-prefixed: {"ab": v} vs {"a": v, "b": v}
	// style collisions must not happen.
	a := ex(map[string]typesys.Value{"ab": typesys.Str("x")}, nil)
	b := ex(map[string]typesys.Value{"a": typesys.Str("x"), "b": typesys.Str("x")}, nil)
	if a.InputKey() == b.InputKey() {
		t.Error("key collision across different parameter sets")
	}
}

func TestPartitionKey(t *testing.T) {
	e := Example{InputPartitions: map[string]string{"masses": "PeptideMassList", "err": "Percentage"}}
	if got := e.PartitionKey(); got != "err=Percentage;masses=PeptideMassList" {
		t.Errorf("PartitionKey = %q", got)
	}
	if (Example{}).PartitionKey() != "" {
		t.Error("empty partitions should give empty key")
	}
}

func TestString(t *testing.T) {
	e := ex(map[string]typesys.Value{"acc": typesys.Str("P12345")},
		map[string]typesys.Value{"rec": typesys.Str("ID P12345; PROT")})
	s := e.String()
	if !strings.Contains(s, "acc: P12345") || !strings.Contains(s, "->") {
		t.Errorf("String = %q", s)
	}
}

func TestByInputKey(t *testing.T) {
	s := Set{
		ex(map[string]typesys.Value{"x": typesys.Str("a")}, map[string]typesys.Value{"o": typesys.Intv(1)}),
		ex(map[string]typesys.Value{"x": typesys.Str("b")}, map[string]typesys.Value{"o": typesys.Intv(2)}),
		ex(map[string]typesys.Value{"x": typesys.Str("a")}, map[string]typesys.Value{"o": typesys.Intv(3)}), // dup key
	}
	idx := s.ByInputKey()
	if len(idx) != 2 {
		t.Fatalf("index size = %d", len(idx))
	}
	if got := idx[s[0].InputKey()]; !got.Outputs["o"].Equal(typesys.Intv(1)) {
		t.Error("first occurrence should win")
	}
}

func randValue(r *rand.Rand) typesys.Value {
	switch r.Intn(4) {
	case 0:
		return typesys.Str(string(rune('A' + r.Intn(26))))
	case 1:
		return typesys.Intv(int64(r.Intn(100)))
	case 2:
		return typesys.Floatv(float64(r.Intn(100)) / 2)
	default:
		return typesys.MustList(typesys.StringType, typesys.Str("p"), typesys.Str(string(rune('a'+r.Intn(26)))))
	}
}

func randExample(r *rand.Rand) Example {
	in := map[string]typesys.Value{}
	out := map[string]typesys.Value{}
	for i := 0; i < 1+r.Intn(3); i++ {
		in[string(rune('a'+i))] = randValue(r)
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		out[string(rune('x'+i))] = randValue(r)
	}
	return Example{
		Inputs:          in,
		Outputs:         out,
		InputPartitions: map[string]string{"a": "ConceptA"},
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		e := randExample(r)
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		var got Example
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		return got.Equal(e) && reflect.DeepEqual(got.InputPartitions, e.InputPartitions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := Set{randExample(r), randExample(r), randExample(r)}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Set
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range s {
		if !got[i].Equal(s[i]) {
			t.Errorf("example %d changed", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"inputs":{"x":{"kind":"mystery"}},"outputs":{}}`,
		`{"inputs":{},"outputs":{"y":{"kind":"int"}}}`,
	}
	for _, s := range bad {
		var e Example
		if err := json.Unmarshal([]byte(s), &e); err == nil {
			t.Errorf("Unmarshal(%s): expected error", s)
		}
	}
}

// TestMarshalDeterministicBytes pins the exact wire bytes of an example:
// object keys come out sorted, fields in declaration order, partitions
// omitted when empty. The persistent store content-addresses sets by
// hashing this encoding, so any drift here silently invalidates every
// stored hash.
func TestMarshalDeterministicBytes(t *testing.T) {
	e := Example{
		Inputs: map[string]typesys.Value{
			"b": typesys.Intv(2),
			"a": typesys.Str("x"),
		},
		Outputs:         map[string]typesys.Value{"o": typesys.Floatv(1.5)},
		InputPartitions: map[string]string{"b": "Count", "a": "Seq"},
	}
	const want = `{"inputs":{"a":{"kind":"string","str":"x"},"b":{"kind":"int","int":2}},` +
		`"outputs":{"o":{"kind":"float","float":1.5}},` +
		`"inputPartitions":{"a":"Seq","b":"Count"}}`
	got, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("encoding drifted:\n got %s\nwant %s", got, want)
	}
	// No partitions: the partition objects disappear entirely.
	bare, err := json.Marshal(ex(
		map[string]typesys.Value{"x": typesys.Str("v")},
		map[string]typesys.Value{"y": typesys.Str("w")}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bare), "Partitions") {
		t.Errorf("empty partitions serialized: %s", bare)
	}
}

// TestMarshalRepeatable re-encodes random examples many times each:
// byte-for-byte identical output every time, despite Go's randomized
// map iteration underneath.
func TestMarshalRepeatable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		e := randExample(r)
		first, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			again, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(first) {
				t.Fatalf("example %d: encoding wobbled on re-marshal %d:\n%s\nvs\n%s",
					i, j, first, again)
			}
		}
	}
}
