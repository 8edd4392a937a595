// Package transport supplies the three module forms of the paper's
// evaluation (§4.1): locally hosted programs, REST services, and SOAP web
// services. The server side exposes registered modules over HTTP in both
// web forms; the client side wraps a remote endpoint as a module.Executor,
// so the generation heuristic invokes remote and local modules through the
// identical black-box interface.
package transport

import (
	"encoding/xml"
	"fmt"
	"strconv"

	"dexa/internal/typesys"
)

// xmlValue is the SOAP-side XML encoding of a typesys.Value:
//
//	<Value kind="string">ACGT</Value>
//	<Value kind="list" elem="string"><Value kind="string">a</Value>...</Value>
//	<Value kind="record"><Field name="id"><Value kind="string">x</Value></Field>...</Value>
type xmlValue struct {
	XMLName xml.Name   `xml:"Value"`
	Kind    string     `xml:"kind,attr"`
	Elem    string     `xml:"elem,attr,omitempty"`
	Text    string     `xml:",chardata"`
	Items   []xmlValue `xml:"Value"`
	Fields  []xmlField `xml:"Field"`
}

type xmlField struct {
	XMLName xml.Name  `xml:"Field"`
	Name    string    `xml:"name,attr"`
	Value   *xmlValue `xml:"Value"`
}

func valueToXML(v typesys.Value) (xmlValue, error) {
	switch w := v.(type) {
	case typesys.StringValue:
		return xmlValue{Kind: "string", Text: string(w)}, nil
	case typesys.IntValue:
		return xmlValue{Kind: "int", Text: strconv.FormatInt(int64(w), 10)}, nil
	case typesys.FloatValue:
		return xmlValue{Kind: "float", Text: strconv.FormatFloat(float64(w), 'g', -1, 64)}, nil
	case typesys.BoolValue:
		return xmlValue{Kind: "bool", Text: strconv.FormatBool(bool(w))}, nil
	case typesys.NullValue:
		return xmlValue{Kind: "null"}, nil
	case typesys.ListValue:
		out := xmlValue{Kind: "list", Elem: w.Elem.String()}
		for _, it := range w.Items {
			x, err := valueToXML(it)
			if err != nil {
				return xmlValue{}, err
			}
			out.Items = append(out.Items, x)
		}
		return out, nil
	case typesys.RecordValue:
		out := xmlValue{Kind: "record"}
		for _, name := range w.Names() {
			fv, _ := w.Get(name)
			x, err := valueToXML(fv)
			if err != nil {
				return xmlValue{}, err
			}
			out.Fields = append(out.Fields, xmlField{Name: name, Value: &x})
		}
		return out, nil
	default:
		return xmlValue{}, fmt.Errorf("transport: cannot encode value of type %T", v)
	}
}

func valueFromXML(x xmlValue) (typesys.Value, error) {
	switch x.Kind {
	case "string":
		return typesys.Str(x.Text), nil
	case "int":
		i, err := strconv.ParseInt(x.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("transport: bad int %q: %w", x.Text, err)
		}
		return typesys.Intv(i), nil
	case "float":
		f, err := strconv.ParseFloat(x.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("transport: bad float %q: %w", x.Text, err)
		}
		return typesys.Floatv(f), nil
	case "bool":
		b, err := strconv.ParseBool(x.Text)
		if err != nil {
			return nil, fmt.Errorf("transport: bad bool %q: %w", x.Text, err)
		}
		return typesys.Boolv(b), nil
	case "null":
		return typesys.Null, nil
	case "list":
		elem, err := typesys.Parse(x.Elem)
		if err != nil {
			return nil, fmt.Errorf("transport: bad list element type %q: %w", x.Elem, err)
		}
		items := make([]typesys.Value, 0, len(x.Items))
		for _, xi := range x.Items {
			v, err := valueFromXML(xi)
			if err != nil {
				return nil, err
			}
			items = append(items, v)
		}
		return typesys.NewList(elem, items...)
	case "record":
		entries := make([]typesys.RecordEntry, 0, len(x.Fields))
		for _, f := range x.Fields {
			if f.Value == nil {
				return nil, fmt.Errorf("transport: record field %q missing value", f.Name)
			}
			v, err := valueFromXML(*f.Value)
			if err != nil {
				return nil, err
			}
			entries = append(entries, typesys.RecordEntry{Name: f.Name, Val: v})
		}
		return typesys.NewRecord(entries...)
	default:
		return nil, fmt.Errorf("transport: unknown XML value kind %q", x.Kind)
	}
}
