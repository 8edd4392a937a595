package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

func persistModule(id string) *module.Module {
	return &module.Module{
		ID: id, Name: "module " + id, Description: "test fixture",
		Form: module.FormREST, Kind: module.Kind(1), Provider: "ebi",
		Inputs: []module.Parameter{
			{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"},
			{Name: "limit", Struct: typesys.IntType, Semantic: "Count",
				Optional: true, Default: typesys.Intv(10)},
		},
		Outputs: []module.Parameter{
			{Name: "acc", Struct: typesys.StringType, Semantic: "Acc"},
		},
	}
}

func persistExamples(seed string) dataexample.Set {
	return dataexample.Set{{
		Inputs: map[string]typesys.Value{
			"seq":   typesys.Str("ACGT-" + seed),
			"limit": typesys.Intv(3),
		},
		Outputs:         map[string]typesys.Value{"acc": typesys.Str("P1-" + seed)},
		InputPartitions: map[string]string{"seq": "DNASequence"},
	}}
}

func TestPersistRoundTrip(t *testing.T) {
	r := New()
	r.MustRegister(persistModule("up"))
	r.MustRegister(persistModule("down"))
	r.MustRegister(persistModule("plain"))
	if err := r.SetExamples("up", persistExamples("u")); err != nil {
		t.Fatal(err)
	}
	if err := r.SetAvailable("down", false); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}

	bound := map[string]bool{}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), func(id string) module.Executor {
		bound[id] = true
		if id == "plain" {
			return nil
		}
		return module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			return map[string]typesys.Value{"acc": typesys.Str("ok")}, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 3 {
		t.Fatalf("loaded %d modules, want 3", loaded.Len())
	}
	if len(bound) != 3 {
		t.Errorf("binder consulted for %d modules, want 3", len(bound))
	}

	// Module identity and signature survive.
	e, ok := loaded.Get("up")
	if !ok {
		t.Fatal("up missing after load")
	}
	m := e.Module
	if m.Name != "module up" || m.Form != module.FormREST || m.Provider != "ebi" {
		t.Errorf("module metadata lost: %+v", m)
	}
	if len(m.Inputs) != 2 || m.Inputs[1].Name != "limit" || !m.Inputs[1].Optional {
		t.Fatalf("inputs lost: %+v", m.Inputs)
	}
	if d, ok := m.Inputs[1].Default.(typesys.IntValue); !ok || int64(d) != 10 {
		t.Errorf("default value lost: %#v", m.Inputs[1].Default)
	}
	if !m.Bound() {
		t.Error("binder-supplied executor not attached")
	}
	if pe, _ := loaded.Get("plain"); pe.Module.Bound() {
		t.Error("nil-binder module should stay unbound")
	}

	// Examples survive.
	set, ok := loaded.Examples("up")
	if !ok || len(set) != 1 {
		t.Fatalf("examples lost: %d, %v", len(set), ok)
	}
	if set[0].InputPartitions["seq"] != "DNASequence" {
		t.Errorf("partitions lost: %+v", set[0].InputPartitions)
	}

	// Availability survives.
	if de, _ := loaded.Get("down"); de.Available {
		t.Error("down should load unavailable")
	}

	// A second save of the loaded registry is byte-identical: persistence
	// is idempotent.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("save/load/save is not idempotent")
	}

	// Files written while the registry kept a per-module health record
	// carry a "health" object in each entry. They still load, and save
	// back to the same bytes: same availability, no health key.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc["entries"].([]any) {
		e.(map[string]any)["health"] = map[string]any{
			"consecutiveFailures": 3, "totalFailures": 3, "lastError": "connection refused", "autoRetired": true,
		}
	}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	fromOld, err := Load(bytes.NewReader(old), nil)
	if err != nil {
		t.Fatalf("a file with the old health key does not load: %v", err)
	}
	var buf3 bytes.Buffer
	if err := fromOld.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Errorf("a file with the old health key saves back as\n%s\nwant\n%s", buf3.String(), buf.String())
	}
}

func TestLoadCorruptInputs(t *testing.T) {
	const goodParam = `{"name":"seq","struct":"string","semantic":"Seq"}`
	goodModule := func(form, param string) string {
		return fmt.Sprintf(
			`{"module":{"id":"m","name":"m","form":%q,"kind":0,"inputs":[%s],"outputs":[{"name":"acc","struct":"string"}]},"available":true}`,
			form, param)
	}
	cases := []struct {
		name    string
		payload string
		errWant string
	}{
		{"invalid json", `{"version": 1, "entries": [`, "decoding"},
		{"not json at all", `=== this is not json ===`, "decoding"},
		{"wrong version", `{"version": 99, "entries": []}`, "unsupported version"},
		{"unknown form", fmt.Sprintf(`{"version":1,"entries":[%s]}`,
			goodModule("carrier-pigeon", goodParam)), "unknown form"},
		{"bad struct type", fmt.Sprintf(`{"version":1,"entries":[%s]}`,
			goodModule("rest", `{"name":"seq","struct":"quaternion"}`)), "parameter seq"},
		{"bad default value", fmt.Sprintf(`{"version":1,"entries":[%s]}`,
			goodModule("rest", `{"name":"seq","struct":"string","default":{"t":"???"}}`)), "default"},
		{"duplicate module", fmt.Sprintf(`{"version":1,"entries":[%s,%s]}`,
			goodModule("rest", goodParam), goodModule("rest", goodParam)), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(c.payload), nil)
			if err == nil {
				t.Fatalf("Load accepted corrupt input %q", c.payload)
			}
			if c.errWant != "" && !strings.Contains(err.Error(), c.errWant) {
				t.Errorf("error %q does not mention %q", err, c.errWant)
			}
		})
	}
	// Sanity: the well-formed variant of the same skeleton loads fine.
	ok := fmt.Sprintf(`{"version":1,"entries":[%s]}`, goodModule("rest", goodParam))
	if _, err := Load(strings.NewReader(ok), nil); err != nil {
		t.Fatalf("control payload failed to load: %v", err)
	}
}
