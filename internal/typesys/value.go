package typesys

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is a concrete instance of a structural Type: the payload carried by
// a module parameter in an invocation or recorded inside a data example.
//
// Values are immutable by convention: callers must not mutate the slices
// backing a ListValue or RecordValue after construction. All implementations
// are comparable via Equal and have a deterministic Canonical form.
type Value interface {
	// Type returns the structural type of the value.
	Type() Type
	// Equal reports deep equality with another value.
	Equal(Value) bool
	// String renders a short human-readable form (used in CLI output and
	// data-example pretty printing).
	String() string

	isValue()
}

// StringValue is a string instance.
type StringValue string

// IntValue is a 64-bit integer instance.
type IntValue int64

// FloatValue is a 64-bit floating point instance.
type FloatValue float64

// BoolValue is a boolean instance.
type BoolValue bool

// NullValue is the absent value, used for optional module parameters that
// were not supplied (the paper notes optional inputs "may be associated
// with null (or default) values"). Null conforms to every type when the
// parameter is optional.
type NullValue struct{}

// ListValue is a homogeneous list instance. Elem is the element type and
// must be valid even when Items is empty, so that empty lists still have a
// precise type.
type ListValue struct {
	Elem  Type
	Items []Value
}

// RecordValue is a record instance with named fields sorted by name.
type RecordValue struct {
	fields []recordField
}

type recordField struct {
	name string
	val  Value
}

// Null is the canonical NullValue instance.
var Null = NullValue{}

func (StringValue) isValue() {}
func (IntValue) isValue()    {}
func (FloatValue) isValue()  {}
func (BoolValue) isValue()   {}
func (NullValue) isValue()   {}
func (ListValue) isValue()   {}
func (RecordValue) isValue() {}

// Str builds a StringValue.
func Str(s string) StringValue { return StringValue(s) }

// Intv builds an IntValue.
func Intv(i int64) IntValue { return IntValue(i) }

// Floatv builds a FloatValue.
func Floatv(f float64) FloatValue { return FloatValue(f) }

// Boolv builds a BoolValue.
func Boolv(b bool) BoolValue { return BoolValue(b) }

// NewList builds a ListValue with the given element type. It returns an
// error if any item does not conform to elem.
func NewList(elem Type, items ...Value) (ListValue, error) {
	for i, it := range items {
		if !Conforms(it, elem) {
			return ListValue{}, fmt.Errorf("typesys: list item %d (%s) does not conform to element type %s", i, it.Type(), elem)
		}
	}
	return ListValue{Elem: elem, Items: items}, nil
}

// MustList is NewList but panics on error; intended for static test data.
func MustList(elem Type, items ...Value) ListValue {
	l, err := NewList(elem, items...)
	if err != nil {
		panic(err)
	}
	return l
}

// RecordEntry pairs a field name with its value when building records.
type RecordEntry struct {
	Name string
	Val  Value
}

// NewRecord builds a RecordValue from entries. Field order is normalised.
// It returns an error on duplicate or empty field names.
func NewRecord(entries ...RecordEntry) (RecordValue, error) {
	fs := make([]recordField, 0, len(entries))
	for _, e := range entries {
		if e.Name == "" {
			return RecordValue{}, fmt.Errorf("typesys: empty record field name")
		}
		if e.Val == nil {
			return RecordValue{}, fmt.Errorf("typesys: nil value for record field %q", e.Name)
		}
		fs = append(fs, recordField{name: e.Name, val: e.Val})
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].name < fs[j].name })
	for i := 1; i < len(fs); i++ {
		if fs[i].name == fs[i-1].name {
			return RecordValue{}, fmt.Errorf("typesys: duplicate record field %q", fs[i].name)
		}
	}
	return RecordValue{fields: fs}, nil
}

// MustRecord is NewRecord but panics on error.
func MustRecord(entries ...RecordEntry) RecordValue {
	r, err := NewRecord(entries...)
	if err != nil {
		panic(err)
	}
	return r
}

// Get returns the value of the named field and whether it exists.
func (r RecordValue) Get(name string) (Value, bool) {
	i := sort.Search(len(r.fields), func(i int) bool { return r.fields[i].name >= name })
	if i < len(r.fields) && r.fields[i].name == name {
		return r.fields[i].val, true
	}
	return nil, false
}

// Names returns the field names in sorted order.
func (r RecordValue) Names() []string {
	names := make([]string, len(r.fields))
	for i, f := range r.fields {
		names[i] = f.name
	}
	return names
}

// Type implementations.

// Type returns StringType.
func (StringValue) Type() Type { return StringType }

// Type returns IntType.
func (IntValue) Type() Type { return IntType }

// Type returns FloatType.
func (FloatValue) Type() Type { return FloatType }

// Type returns BoolType.
func (BoolValue) Type() Type { return BoolType }

// Type returns the zero, invalid Type: null has no structural type of its own.
func (NullValue) Type() Type { return Type{} }

// Type returns list<Elem>.
func (l ListValue) Type() Type { return ListOf(l.Elem) }

// Type returns the record type induced by the field values.
func (r RecordValue) Type() Type {
	fs := make([]Field, len(r.fields))
	for i, f := range r.fields {
		fs[i] = Field{Name: f.name, Type: f.val.Type()}
	}
	return Type{Kind: Record, Fields: fs}
}

// Equal implementations.

// Equal reports v == u.
func (v StringValue) Equal(u Value) bool { w, ok := u.(StringValue); return ok && v == w }

// Equal reports v == u.
func (v IntValue) Equal(u Value) bool { w, ok := u.(IntValue); return ok && v == w }

// Equal reports v == u (bitwise float equality; experiment values are
// produced deterministically so this is exact, and NaN is never used).
func (v FloatValue) Equal(u Value) bool { w, ok := u.(FloatValue); return ok && v == w }

// Equal reports v == u.
func (v BoolValue) Equal(u Value) bool { w, ok := u.(BoolValue); return ok && v == w }

// Equal reports whether u is also null.
func (NullValue) Equal(u Value) bool { _, ok := u.(NullValue); return ok }

// Equal reports deep equality of element type and items.
func (v ListValue) Equal(u Value) bool {
	w, ok := u.(ListValue)
	if !ok || !v.Elem.Equal(w.Elem) || len(v.Items) != len(w.Items) {
		return false
	}
	for i := range v.Items {
		if !v.Items[i].Equal(w.Items[i]) {
			return false
		}
	}
	return true
}

// Equal reports deep equality of field names and values.
func (v RecordValue) Equal(u Value) bool {
	w, ok := u.(RecordValue)
	if !ok || len(v.fields) != len(w.fields) {
		return false
	}
	for i := range v.fields {
		if v.fields[i].name != w.fields[i].name || !v.fields[i].val.Equal(w.fields[i].val) {
			return false
		}
	}
	return true
}

// String implementations render short human-readable forms (CLI output,
// data-example pretty printing).

func (v StringValue) String() string { return string(v) }
func (v IntValue) String() string    { return strconv.FormatInt(int64(v), 10) }
func (v FloatValue) String() string  { return strconv.FormatFloat(float64(v), 'g', -1, 64) }
func (v BoolValue) String() string   { return strconv.FormatBool(bool(v)) }
func (NullValue) String() string     { return "null" }

func (v ListValue) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, it := range v.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteByte(']')
	return b.String()
}

func (v RecordValue) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range v.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.name)
		b.WriteString(": ")
		b.WriteString(f.val.String())
	}
	b.WriteByte('}')
	return b.String()
}

// Conforms reports whether value v is a valid instance of type t. Null
// conforms to nothing here; optional-parameter handling (where null is
// acceptable) is decided by the module layer, which checks for NullValue
// explicitly before calling Conforms.
func Conforms(v Value, t Type) bool {
	switch t.Kind {
	case String:
		_, ok := v.(StringValue)
		return ok
	case Int:
		_, ok := v.(IntValue)
		return ok
	case Float:
		_, ok := v.(FloatValue)
		return ok
	case Bool:
		_, ok := v.(BoolValue)
		return ok
	case List:
		l, ok := v.(ListValue)
		if !ok || !l.Elem.Equal(*t.Elem) {
			return false
		}
		for _, it := range l.Items {
			if !Conforms(it, *t.Elem) {
				return false
			}
		}
		return true
	case Record:
		r, ok := v.(RecordValue)
		if !ok || len(r.fields) != len(t.Fields) {
			return false
		}
		for i, f := range r.fields {
			if f.name != t.Fields[i].Name || !Conforms(f.val, t.Fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Canonical returns a deterministic encoding of v suitable for use as a map
// key: equal values have equal canonical forms and distinct values distinct
// forms (strings are length-prefixed to avoid ambiguity).
func Canonical(v Value) string {
	var b strings.Builder
	canonical(v, &b)
	return b.String()
}

func canonical(v Value, b *strings.Builder) {
	switch w := v.(type) {
	case StringValue:
		fmt.Fprintf(b, "s%d:%s", len(w), string(w))
	case IntValue:
		fmt.Fprintf(b, "i%d", int64(w))
	case FloatValue:
		b.WriteByte('f')
		b.WriteString(strconv.FormatFloat(float64(w), 'g', -1, 64))
	case BoolValue:
		if w {
			b.WriteString("b1")
		} else {
			b.WriteString("b0")
		}
	case NullValue:
		b.WriteByte('n')
	case ListValue:
		et := w.Elem.String()
		fmt.Fprintf(b, "l%d<%d:%s>(", len(w.Items), len(et), et)
		for _, it := range w.Items {
			canonical(it, b)
			b.WriteByte(';')
		}
		b.WriteByte(')')
	case RecordValue:
		fmt.Fprintf(b, "r%d(", len(w.fields))
		for _, f := range w.fields {
			fmt.Fprintf(b, "k%d:%s=", len(f.name), f.name)
			canonical(f.val, b)
			b.WriteByte(';')
		}
		b.WriteByte(')')
	default:
		b.WriteByte('?')
	}
}
