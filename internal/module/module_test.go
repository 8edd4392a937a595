package module

import (
	"errors"
	"strings"
	"testing"

	"dexa/internal/typesys"
)

// echoModule builds a simple valid module for tests: one required string
// input "in", one optional int "limit" (default 10), one string output.
func echoModule() *Module {
	m := &Module{
		ID:   "m1",
		Name: "Echo",
		Form: FormLocal,
		Kind: KindTransformation,
		Inputs: []Parameter{
			{Name: "in", Struct: typesys.StringType, Semantic: "BioSequence"},
			{Name: "limit", Struct: typesys.IntType, Semantic: "Limit", Optional: true, Default: typesys.Intv(10)},
		},
		Outputs: []Parameter{
			{Name: "out", Struct: typesys.StringType, Semantic: "BioSequence"},
		},
	}
	m.Bind(ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		s := in["in"].(typesys.StringValue)
		n := in["limit"].(typesys.IntValue)
		if int64(len(s)) > int64(n) {
			s = s[:n]
		}
		return map[string]typesys.Value{"out": s}, nil
	}))
	return m
}

func TestFormAndKindStrings(t *testing.T) {
	if FormLocal.String() != "local" || FormREST.String() != "rest" || FormSOAP.String() != "soap" {
		t.Error("form strings wrong")
	}
	if !strings.Contains(Form(9).String(), "9") {
		t.Error("unknown form string")
	}
	kinds := map[Kind]string{
		KindTransformation: "format transformation",
		KindRetrieval:      "data retrieval",
		KindMapping:        "mapping identifiers",
		KindFiltering:      "filtering",
		KindAnalysis:       "data analysis",
		KindUnknown:        "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestValidateOK(t *testing.T) {
	if err := echoModule().Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	base := echoModule()
	cases := []struct {
		name   string
		mutate func(m *Module)
	}{
		{"empty id", func(m *Module) { m.ID = "" }},
		{"empty name", func(m *Module) { m.Name = "" }},
		{"no inputs", func(m *Module) { m.Inputs = nil }},
		{"no outputs", func(m *Module) { m.Outputs = nil }},
		{"dup input", func(m *Module) { m.Inputs = append(m.Inputs, m.Inputs[0]) }},
		{"empty param name", func(m *Module) { m.Inputs[0].Name = "" }},
		{"invalid type", func(m *Module) { m.Inputs[0].Struct = typesys.Type{} }},
		{"bad default", func(m *Module) { m.Inputs[1].Default = typesys.Str("x") }},
		{"optional output", func(m *Module) { m.Outputs[0].Optional = true }},
	}
	for _, c := range cases {
		m := echoModule()
		c.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	_ = base
}

func TestInvokeHappyPath(t *testing.T) {
	m := echoModule()
	out, err := m.Invoke(map[string]typesys.Value{"in": typesys.Str("ACGT"), "limit": typesys.Intv(2)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !out["out"].Equal(typesys.Str("AC")) {
		t.Errorf("out = %v", out["out"])
	}
}

func TestInvokeOptionalDefault(t *testing.T) {
	m := echoModule()
	long := strings.Repeat("A", 25)
	out, err := m.Invoke(map[string]typesys.Value{"in": typesys.Str(long)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !out["out"].Equal(typesys.Str(strings.Repeat("A", 10))) {
		t.Errorf("default limit not applied: %v", out["out"])
	}
	// Explicit null behaves like absent.
	out, err = m.Invoke(map[string]typesys.Value{"in": typesys.Str(long), "limit": typesys.Null})
	if err != nil {
		t.Fatalf("Invoke with null: %v", err)
	}
	if !out["out"].Equal(typesys.Str(strings.Repeat("A", 10))) {
		t.Errorf("null should trigger default: %v", out["out"])
	}
}

func TestInvokeOptionalWithoutDefaultGetsNull(t *testing.T) {
	m := echoModule()
	m.Inputs[1].Default = nil
	var sawNull bool
	m.Bind(ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		_, sawNull = in["limit"].(typesys.NullValue)
		return map[string]typesys.Value{"out": in["in"]}, nil
	}))
	if _, err := m.Invoke(map[string]typesys.Value{"in": typesys.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if !sawNull {
		t.Error("executor should receive typesys.Null for absent optional without default")
	}
}

func TestInvokeValidationErrors(t *testing.T) {
	m := echoModule()
	cases := []struct {
		name   string
		inputs map[string]typesys.Value
	}{
		{"missing required", map[string]typesys.Value{"limit": typesys.Intv(1)}},
		{"unknown input", map[string]typesys.Value{"in": typesys.Str("x"), "bogus": typesys.Intv(1)}},
		{"wrong type", map[string]typesys.Value{"in": typesys.Intv(3)}},
		{"null required", map[string]typesys.Value{"in": typesys.Null}},
	}
	for _, c := range cases {
		if _, err := m.Invoke(c.inputs); err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if IsExecutionError(err) {
			t.Errorf("%s: validation problems must not be ExecutionErrors: %v", c.name, err)
		}
	}
}

func TestInvokeUnbound(t *testing.T) {
	m := echoModule()
	m.exec = nil
	if m.Bound() {
		t.Error("Bound should be false")
	}
	if _, err := m.Invoke(map[string]typesys.Value{"in": typesys.Str("x")}); err == nil {
		t.Error("expected error for unbound module")
	}
}

func TestInvokeExecutionError(t *testing.T) {
	m := echoModule()
	m.Bind(ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return nil, ErrRejectedInput
	}))
	_, err := m.Invoke(map[string]typesys.Value{"in": typesys.Str("x")})
	if err == nil || !IsExecutionError(err) {
		t.Fatalf("expected ExecutionError, got %v", err)
	}
	if !errors.Is(err, ErrRejectedInput) {
		t.Errorf("cause lost: %v", err)
	}
	var ee *ExecutionError
	if !errors.As(err, &ee) || ee.ModuleID != "m1" {
		t.Errorf("module ID lost: %v", err)
	}
}

func TestInvokeOutputValidation(t *testing.T) {
	missing := echoModule()
	missing.Bind(ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{}, nil
	}))
	if _, err := missing.Invoke(map[string]typesys.Value{"in": typesys.Str("x")}); err == nil {
		t.Error("missing output should error")
	}

	wrongType := echoModule()
	wrongType.Bind(ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": typesys.Intv(1)}, nil
	}))
	if _, err := wrongType.Invoke(map[string]typesys.Value{"in": typesys.Str("x")}); err == nil {
		t.Error("wrong output type should error")
	}

	extra := echoModule()
	extra.Bind(ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": typesys.Str("y"), "spurious": typesys.Intv(1)}, nil
	}))
	if _, err := extra.Invoke(map[string]typesys.Value{"in": typesys.Str("x")}); err == nil {
		t.Error("undeclared output should error")
	}
}

func TestParamAccessors(t *testing.T) {
	m := echoModule()
	if p, ok := m.Input("limit"); !ok || !p.Optional {
		t.Errorf("Input(limit) = %+v, %v", p, ok)
	}
	if _, ok := m.Input("out"); ok {
		t.Error("outputs are not inputs")
	}
	if p, ok := m.Output("out"); !ok || p.Semantic != "BioSequence" {
		t.Errorf("Output(out) = %+v, %v", p, ok)
	}
}
