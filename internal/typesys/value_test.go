package typesys

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarValues(t *testing.T) {
	cases := []struct {
		v   Value
		typ Type
		str string
	}{
		{Str("hello"), StringType, "hello"},
		{Intv(-42), IntType, "-42"},
		{Floatv(2.5), FloatType, "2.5"},
		{Boolv(true), BoolType, "true"},
		{Null, Type{}, "null"},
	}
	for _, c := range cases {
		if !c.v.Type().Equal(c.typ) {
			t.Errorf("%v.Type() = %s, want %s", c.v, c.v.Type(), c.typ)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.str)
		}
		if !c.v.Equal(c.v) {
			t.Errorf("%v not equal to itself", c.v)
		}
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	vals := []Value{Str("1"), Intv(1), Floatv(1), Boolv(true), Null,
		MustList(IntType, Intv(1)), MustRecord(RecordEntry{Name: "a", Val: Intv(1)})}
	for i, a := range vals {
		for j, b := range vals {
			if i != j && a.Equal(b) {
				t.Errorf("distinct-kind values compare equal: %v == %v", a, b)
			}
		}
	}
}

func TestListValue(t *testing.T) {
	l := MustList(StringType, Str("a"), Str("b"))
	if !l.Type().Equal(ListOf(StringType)) {
		t.Errorf("list type = %s", l.Type())
	}
	if l.String() != "[a, b]" {
		t.Errorf("list string = %q", l.String())
	}
	if _, err := NewList(StringType, Intv(1)); err == nil {
		t.Errorf("heterogeneous list should fail")
	}
	empty := MustList(IntType)
	if !empty.Type().Equal(ListOf(IntType)) {
		t.Errorf("empty list keeps element type; got %s", empty.Type())
	}
	l2 := MustList(StringType, Str("a"), Str("b"))
	if !l.Equal(l2) {
		t.Errorf("identical lists should be equal")
	}
	if l.Equal(MustList(StringType, Str("a"))) {
		t.Errorf("different lengths should differ")
	}
	if l.Equal(MustList(StringType, Str("a"), Str("c"))) {
		t.Errorf("different items should differ")
	}
}

func TestRecordValue(t *testing.T) {
	r := MustRecord(
		RecordEntry{Name: "score", Val: Floatv(0.9)},
		RecordEntry{Name: "acc", Val: Str("P12345")},
	)
	if len(r.fields) != 2 {
		t.Fatalf("Len = %d", len(r.fields))
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"acc", "score"}) {
		t.Errorf("Names = %v", got)
	}
	v, ok := r.Get("acc")
	if !ok || !v.Equal(Str("P12345")) {
		t.Errorf("Get(acc) = %v, %v", v, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Errorf("Get(nope) should miss")
	}
	want := RecordOf(Field{Name: "acc", Type: StringType}, Field{Name: "score", Type: FloatType})
	if !r.Type().Equal(want) {
		t.Errorf("record type = %s, want %s", r.Type(), want)
	}
	if r.String() != "{acc: P12345, score: 0.9}" {
		t.Errorf("record string = %q", r.String())
	}
	// Construction order must not matter.
	r2 := MustRecord(
		RecordEntry{Name: "acc", Val: Str("P12345")},
		RecordEntry{Name: "score", Val: Floatv(0.9)},
	)
	if !r.Equal(r2) {
		t.Errorf("entry order should not affect equality")
	}
}

func TestNewRecordErrors(t *testing.T) {
	if _, err := NewRecord(RecordEntry{Name: "", Val: Intv(1)}); err == nil {
		t.Errorf("empty field name should fail")
	}
	if _, err := NewRecord(RecordEntry{Name: "a", Val: nil}); err == nil {
		t.Errorf("nil value should fail")
	}
	if _, err := NewRecord(RecordEntry{Name: "a", Val: Intv(1)}, RecordEntry{Name: "a", Val: Intv(2)}); err == nil {
		t.Errorf("duplicate field should fail")
	}
}

func TestConforms(t *testing.T) {
	rec := MustRecord(RecordEntry{Name: "id", Val: Str("x")}, RecordEntry{Name: "n", Val: Intv(3)})
	recT := RecordOf(Field{Name: "id", Type: StringType}, Field{Name: "n", Type: IntType})
	cases := []struct {
		v    Value
		t    Type
		want bool
	}{
		{Str("a"), StringType, true},
		{Str("a"), IntType, false},
		{Intv(1), IntType, true},
		{Floatv(1), FloatType, true},
		{Boolv(false), BoolType, true},
		{Null, StringType, false},
		{MustList(StringType, Str("a")), ListOf(StringType), true},
		{MustList(StringType, Str("a")), ListOf(IntType), false},
		{MustList(IntType), ListOf(IntType), true},
		{rec, recT, true},
		{rec, RecordOf(Field{Name: "id", Type: StringType}), false},
		{rec, RecordOf(Field{Name: "id", Type: StringType}, Field{Name: "n", Type: FloatType}), false},
		{Str("a"), Type{}, false},
	}
	for _, c := range cases {
		if got := Conforms(c.v, c.t); got != c.want {
			t.Errorf("Conforms(%v, %s) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
}

// genValue generates a random Value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	max := 7
	if depth <= 0 {
		max = 5 // scalars and null only
	}
	switch r.Intn(max) {
	case 0:
		letters := []byte("abcXYZ0123:;()=,")
		n := r.Intn(8)
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return Str(string(b))
	case 1:
		return Intv(int64(r.Intn(2000) - 1000))
	case 2:
		return Floatv(float64(r.Intn(1000)) / 8)
	case 3:
		return Boolv(r.Intn(2) == 0)
	case 4:
		return Null
	case 5:
		elemProto := genScalar(r)
		n := r.Intn(4)
		items := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			items = append(items, sameKindAs(r, elemProto))
		}
		return MustList(elemProto.Type(), items...)
	default:
		n := r.Intn(4)
		entries := make([]RecordEntry, 0, n)
		for i := 0; i < n; i++ {
			entries = append(entries, RecordEntry{
				Name: string(rune('a' + i)),
				Val:  genValue(r, depth-1),
			})
		}
		return MustRecord(entries...)
	}
}

func genScalar(r *rand.Rand) Value {
	switch r.Intn(4) {
	case 0:
		return Str("s")
	case 1:
		return Intv(0)
	case 2:
		return Floatv(0)
	default:
		return Boolv(false)
	}
}

func sameKindAs(r *rand.Rand, proto Value) Value {
	switch proto.(type) {
	case StringValue:
		return Str(string(rune('a' + r.Intn(26))))
	case IntValue:
		return Intv(int64(r.Intn(100)))
	case FloatValue:
		return Floatv(float64(r.Intn(100)) / 4)
	default:
		return Boolv(r.Intn(2) == 0)
	}
}

func TestCanonicalInjectiveProperty(t *testing.T) {
	// Property: Canonical(a) == Canonical(b) iff a.Equal(b).
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		a := genValue(r, 2)
		b := genValue(r, 2)
		return (Canonical(a) == Canonical(b)) == a.Equal(b)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCanonicalDistinguishesTrickyStrings(t *testing.T) {
	// Strings containing canonical-syntax characters must not collide with
	// structured values.
	a := Str("l1(i1;)")
	b := MustList(IntType, Intv(1))
	if Canonical(a) == Canonical(b) {
		t.Errorf("canonical collision between %q and %v", a, b)
	}
	c := MustList(StringType, Str("a;"), Str("b"))
	d := MustList(StringType, Str("a"), Str(";b"))
	if Canonical(c) == Canonical(d) {
		t.Errorf("canonical collision between %v and %v", c, d)
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		v := genValue(r, 3)
		data, err := MarshalValue(v)
		if err != nil {
			return false
		}
		got, err := UnmarshalValue(data)
		if err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTripExamples(t *testing.T) {
	vals := []Value{
		Str(""), Str("αβγ"), Intv(-9e15), Floatv(0.1), Boolv(false), Null,
		MustList(FloatType, Floatv(1.5), Floatv(-2)),
		MustList(IntType),
		MustRecord(),
		MustRecord(
			RecordEntry{Name: "seq", Val: Str("MKT")},
			RecordEntry{Name: "hits", Val: MustList(StringType, Str("P1"), Str("P2"))},
		),
	}
	for _, v := range vals {
		data, err := MarshalValue(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		got, err := UnmarshalValue(data)
		if err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %s -> %v", v, data, got)
		}
	}
}

func TestUnmarshalValueErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"kind":"mystery"}`,
		`{"kind":"string"}`,
		`{"kind":"int"}`,
		`{"kind":"float"}`,
		`{"kind":"bool"}`,
		`{"kind":"list","elem":"nope"}`,
	}
	for _, s := range bad {
		if _, err := UnmarshalValue([]byte(s)); err == nil {
			t.Errorf("UnmarshalValue(%s): expected error", s)
		}
	}
}

func TestMarshalNilValue(t *testing.T) {
	if _, err := MarshalValue(nil); err == nil {
		t.Errorf("MarshalValue(nil) should fail")
	}
}
