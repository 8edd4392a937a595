package typesys

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		String: "string", Int: "int", Float: "float", Bool: "bool",
		List: "list", Record: "record", Kind(0): "invalid", Kind(99): "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestTypeStringAndParseRoundTrip(t *testing.T) {
	types := []Type{
		StringType,
		IntType,
		FloatType,
		BoolType,
		ListOf(StringType),
		ListOf(ListOf(IntType)),
		RecordOf(),
		RecordOf(Field{Name: "id", Type: StringType}),
		RecordOf(Field{Name: "score", Type: FloatType}, Field{Name: "id", Type: StringType}),
		ListOf(RecordOf(Field{Name: "acc", Type: StringType}, Field{Name: "len", Type: IntType})),
		RecordOf(Field{Name: "hits", Type: ListOf(StringType)}, Field{Name: "ok", Type: BoolType}),
	}
	for _, typ := range types {
		s := typ.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !got.Equal(typ) {
			t.Errorf("round trip of %q produced %q", s, got)
		}
	}
}

func TestParseWhitespace(t *testing.T) {
	got, err := Parse(" record{ id : string , hits : list< int > } ")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := RecordOf(Field{Name: "id", Type: StringType}, Field{Name: "hits", Type: ListOf(IntType)})
	if !got.Equal(want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "strin", "list", "list<", "list<string", "list<string>>",
		"record", "record{", "record{id}", "record{id:string",
		"record{:string}", "string int", "record{id:string,}",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", s)
		}
	}
}

func TestRecordFieldNormalisation(t *testing.T) {
	a := RecordOf(Field{Name: "b", Type: IntType}, Field{Name: "a", Type: StringType})
	b := RecordOf(Field{Name: "a", Type: StringType}, Field{Name: "b", Type: IntType})
	if !a.Equal(b) {
		t.Errorf("field order should not affect equality: %s vs %s", a, b)
	}
	if a.Fields[0].Name != "a" {
		t.Errorf("fields not sorted: %v", a.Fields)
	}
}

func TestRecordOfDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("RecordOf with duplicate field did not panic")
		}
	}()
	RecordOf(Field{Name: "x", Type: IntType}, Field{Name: "x", Type: StringType})
}

func TestTypeEqualNegative(t *testing.T) {
	pairs := [][2]Type{
		{StringType, IntType},
		{ListOf(StringType), ListOf(IntType)},
		{ListOf(StringType), StringType},
		{RecordOf(Field{Name: "a", Type: IntType}), RecordOf(Field{Name: "b", Type: IntType})},
		{RecordOf(Field{Name: "a", Type: IntType}), RecordOf(Field{Name: "a", Type: StringType})},
		{RecordOf(Field{Name: "a", Type: IntType}), RecordOf()},
	}
	for _, p := range pairs {
		if p[0].Equal(p[1]) {
			t.Errorf("%s should not equal %s", p[0], p[1])
		}
	}
}

func TestIsValid(t *testing.T) {
	valid := []Type{StringType, ListOf(IntType), RecordOf(Field{Name: "a", Type: BoolType})}
	for _, typ := range valid {
		if !typ.IsValid() {
			t.Errorf("%s should be valid", typ)
		}
	}
	invalid := []Type{{}, {Kind: List}, {Kind: Record, Fields: []Field{{Name: "", Type: IntType}}}, {Kind: Record, Fields: []Field{{Name: "a"}}}}
	for _, typ := range invalid {
		if typ.IsValid() {
			t.Errorf("%#v should be invalid", typ)
		}
	}
}

func TestNestedTypeString(t *testing.T) {
	typ := ListOf(RecordOf(Field{Name: "acc", Type: StringType}, Field{Name: "score", Type: FloatType}))
	want := "list<record{acc:string,score:float}>"
	if got := typ.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if !strings.Contains(typ.String(), "record{") {
		t.Errorf("nested record missing")
	}
}
