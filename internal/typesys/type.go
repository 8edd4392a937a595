// Package typesys implements the structural data types and runtime values
// exchanged with scientific modules.
//
// The paper models every module parameter with two facets: a structural
// type str(p) (e.g. String or Integer) and a semantic type sem(p) (an
// ontology concept, handled by package ontology). This package provides the
// structural side: a small recursive type algebra (scalars, lists, records),
// the Value representation for concrete parameter instances, structural
// conformance checks ("groundings" in the paper's terminology, after
// Kopecký et al.), canonicalisation used for data-example redundancy
// detection, and a JSON wire format used by the registry and the REST/SOAP
// transports.
package typesys

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the structural kinds a parameter type can have.
type Kind int

// The supported structural kinds.
const (
	Invalid Kind = iota
	String
	Int
	Float
	Bool
	List
	Record
)

// String returns the lexical name of the kind, matching the grammar
// accepted by Parse.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case List:
		return "list"
	case Record:
		return "record"
	default:
		return "invalid"
	}
}

// Type is a structural data type. A Type is immutable once constructed;
// the zero Type is Invalid.
type Type struct {
	Kind   Kind
	Elem   *Type   // element type when Kind == List
	Fields []Field // field list when Kind == Record, sorted by name
}

// Field is a named component of a record type.
type Field struct {
	Name string
	Type Type
}

// Scalar type singletons.
var (
	StringType = Type{Kind: String}
	IntType    = Type{Kind: Int}
	FloatType  = Type{Kind: Float}
	BoolType   = Type{Kind: Bool}
)

// ListOf returns the type of homogeneous lists with the given element type.
func ListOf(elem Type) Type {
	e := elem
	return Type{Kind: List, Elem: &e}
}

// RecordOf returns a record type with the given fields. Field order is
// normalised (sorted by name) so that structurally identical records
// compare equal regardless of declaration order. RecordOf panics on
// duplicate field names: record types are always program-constructed and a
// duplicate is a programming error.
func RecordOf(fields ...Field) Type {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	for i := 1; i < len(fs); i++ {
		if fs[i].Name == fs[i-1].Name {
			panic(fmt.Sprintf("typesys: duplicate record field %q", fs[i].Name))
		}
	}
	return Type{Kind: Record, Fields: fs}
}

// IsValid reports whether t is a well-formed type (non-Invalid kind and
// well-formed components).
func (t Type) IsValid() bool {
	switch t.Kind {
	case String, Int, Float, Bool:
		return true
	case List:
		return t.Elem != nil && t.Elem.IsValid()
	case Record:
		for _, f := range t.Fields {
			if f.Name == "" || !f.Type.IsValid() {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Equal reports structural equality of two types.
func (t Type) Equal(u Type) bool {
	if t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case List:
		return t.Elem.Equal(*u.Elem)
	case Record:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != u.Fields[i].Name || !t.Fields[i].Type.Equal(u.Fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Field returns the type of the named record field and whether it exists.
// It returns false for non-record types.
func (t Type) Field(name string) (Type, bool) {
	if t.Kind != Record {
		return Type{}, false
	}
	i := sort.Search(len(t.Fields), func(i int) bool { return t.Fields[i].Name >= name })
	if i < len(t.Fields) && t.Fields[i].Name == name {
		return t.Fields[i].Type, true
	}
	return Type{}, false
}

// String renders the type in the grammar accepted by Parse, for example
// "string", "list<record{id:string,score:float}>".
func (t Type) String() string {
	switch t.Kind {
	case String, Int, Float, Bool:
		return t.Kind.String() // a constant: no builder, no allocation
	}
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t Type) write(b *strings.Builder) {
	switch t.Kind {
	case String, Int, Float, Bool:
		b.WriteString(t.Kind.String())
	case List:
		b.WriteString("list<")
		t.Elem.write(b)
		b.WriteByte('>')
	case Record:
		b.WriteString("record{")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			f.Type.write(b)
		}
		b.WriteByte('}')
	default:
		b.WriteString("invalid")
	}
}

// Parse parses the textual type grammar produced by Type.String:
//
//	type   := "string" | "int" | "float" | "bool"
//	        | "list" "<" type ">"
//	        | "record" "{" [field ("," field)*] "}"
//	field  := name ":" type
//
// Whitespace is permitted between tokens.
func Parse(s string) (Type, error) {
	p := &typeParser{src: s}
	t, err := p.parseType()
	if err != nil {
		return Type{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Type{}, fmt.Errorf("typesys: trailing input at offset %d in %q", p.pos, s)
	}
	return t, nil
}

// MustParse is Parse but panics on error; intended for static declarations.
func MustParse(s string) Type {
	t, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return t
}

type typeParser struct {
	src string
	pos int
}

func (p *typeParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *typeParser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *typeParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return fmt.Errorf("typesys: expected %q at offset %d in %q", string(c), p.pos, p.src)
	}
	p.pos++
	return nil
}

func (p *typeParser) parseType() (Type, error) {
	p.skipSpace()
	name := p.ident()
	switch name {
	case "string":
		return StringType, nil
	case "int":
		return IntType, nil
	case "float":
		return FloatType, nil
	case "bool":
		return BoolType, nil
	case "list":
		if err := p.expect('<'); err != nil {
			return Type{}, err
		}
		elem, err := p.parseType()
		if err != nil {
			return Type{}, err
		}
		if err := p.expect('>'); err != nil {
			return Type{}, err
		}
		return ListOf(elem), nil
	case "record":
		if err := p.expect('{'); err != nil {
			return Type{}, err
		}
		var fields []Field
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '}' {
			p.pos++
			return RecordOf(), nil
		}
		for {
			p.skipSpace()
			fname := p.ident()
			if fname == "" {
				return Type{}, fmt.Errorf("typesys: expected field name at offset %d in %q", p.pos, p.src)
			}
			if err := p.expect(':'); err != nil {
				return Type{}, err
			}
			ft, err := p.parseType()
			if err != nil {
				return Type{}, err
			}
			fields = append(fields, Field{Name: fname, Type: ft})
			p.skipSpace()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect('}'); err != nil {
			return Type{}, err
		}
		return RecordOf(fields...), nil
	case "":
		return Type{}, fmt.Errorf("typesys: expected type at offset %d in %q", p.pos, p.src)
	default:
		return Type{}, fmt.Errorf("typesys: unknown type name %q in %q", name, p.src)
	}
}
