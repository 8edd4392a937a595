package registry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

func mod(id, provider string, kind module.Kind) *module.Module {
	m := &module.Module{
		ID: id, Name: "Name-" + id, Description: "does " + id, Provider: provider, Kind: kind,
		Form: module.FormSOAP,
		Inputs: []module.Parameter{
			{Name: "in", Struct: typesys.StringType, Semantic: "Seq"},
			{Name: "opt", Struct: typesys.IntType, Semantic: "Limit", Optional: true, Default: typesys.Intv(5)},
		},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.ListOf(typesys.StringType), Semantic: "Acc"}},
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"out": typesys.MustList(typesys.StringType, in["in"])}, nil
	}))
	return m
}

func TestRegisterAndGet(t *testing.T) {
	r := New()
	m := mod("a", "EBI", module.KindRetrieval)
	if err := r.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(m); err == nil {
		t.Error("duplicate should fail")
	}
	bad := mod("", "EBI", module.KindRetrieval)
	if err := r.Register(bad); err == nil {
		t.Error("invalid module should fail")
	}
	e, ok := r.Get("a")
	if !ok || !e.Available || e.Module != m {
		t.Errorf("Get = %+v, %v", e, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Error("missing module found")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestAvailability(t *testing.T) {
	r := New()
	r.MustRegister(mod("kegg1", "KEGG", module.KindMapping))
	r.MustRegister(mod("kegg2", "KEGG", module.KindMapping))
	r.MustRegister(mod("ebi1", "EBI", module.KindRetrieval))

	for _, id := range []string{"kegg1", "kegg2"} {
		if err := r.SetAvailable(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Available(); len(got) != 1 || got[0].ID != "ebi1" {
		t.Errorf("available = %v", got)
	}
	if err := r.SetAvailable("kegg1", true); err != nil {
		t.Fatal(err)
	}
	if len(r.Available()) != 2 {
		t.Error("SetAvailable failed")
	}
	if err := r.SetAvailable("nope", true); err == nil {
		t.Error("unknown module should fail")
	}
}

func TestExamples(t *testing.T) {
	r := New()
	r.MustRegister(mod("a", "EBI", module.KindRetrieval))
	set := dataexample.Set{{
		Inputs:  map[string]typesys.Value{"in": typesys.Str("x")},
		Outputs: map[string]typesys.Value{"out": typesys.MustList(typesys.StringType, typesys.Str("x"))},
	}}
	if err := r.SetExamples("a", set); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Examples("a")
	if !ok || len(got) != 1 {
		t.Errorf("Examples = %v, %v", got, ok)
	}
	if err := r.SetExamples("nope", set); err == nil {
		t.Error("unknown module should fail")
	}
	if _, ok := r.Examples("nope"); ok {
		t.Error("unknown module examples found")
	}
}

func TestQueries(t *testing.T) {
	r := New()
	r.MustRegister(mod("getRecord", "EBI", module.KindRetrieval))
	r.MustRegister(mod("blastSearch", "NCBI", module.KindAnalysis))
	r.MustRegister(mod("mapIds", "KEGG", module.KindMapping))

	if got := r.IDs(); !reflect.DeepEqual(got, []string{"blastSearch", "getRecord", "mapIds"}) {
		t.Errorf("IDs = %v", got)
	}
	if got := r.Modules(); len(got) != 3 || got[0].ID != "blastSearch" {
		t.Errorf("Modules = %v", got)
	}
	if got := r.ByKind(module.KindMapping); len(got) != 1 || got[0].ID != "mapIds" {
		t.Errorf("ByKind = %v", got)
	}
	if got := r.Search("record"); len(got) != 1 || got[0].ID != "getRecord" {
		t.Errorf("Search = %v", got)
	}
	if got := r.Search("DOES"); len(got) != 3 {
		t.Errorf("Search by description = %v", got)
	}
	if got := r.Search(""); got != nil {
		t.Error("empty query should match nothing")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := New()
	a := mod("a", "EBI", module.KindRetrieval)
	b := mod("b", "KEGG", module.KindMapping)
	b.Form = module.FormREST
	r.MustRegister(a)
	r.MustRegister(b)
	set := dataexample.Set{{
		Inputs:           map[string]typesys.Value{"in": typesys.Str("ACGT")},
		Outputs:          map[string]typesys.Value{"out": typesys.MustList(typesys.StringType, typesys.Str("P1"))},
		InputPartitions:  map[string]string{"in": "DNA"},
		OutputPartitions: map[string]string{"out": "Acc"},
	}}
	if err := r.SetExamples("a", set); err != nil {
		t.Fatal(err)
	}
	if err := r.SetAvailable("b", false); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}

	bound := map[string]bool{}
	got, err := Load(&buf, func(id string) module.Executor {
		bound[id] = true
		if id == "a" {
			return module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
				return map[string]typesys.Value{"out": typesys.MustList(typesys.StringType, in["in"])}, nil
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Len = %d", got.Len())
	}
	if !bound["a"] || !bound["b"] {
		t.Error("binder not consulted for all modules")
	}
	ea, _ := got.Get("a")
	if !ea.Available || ea.Module.Provider != "EBI" || ea.Module.Kind != module.KindRetrieval {
		t.Errorf("entry a = %+v", ea.Module)
	}
	if len(ea.Examples) != 1 || !ea.Examples[0].Inputs["in"].Equal(typesys.Str("ACGT")) {
		t.Errorf("examples lost: %v", ea.Examples)
	}
	if ea.Examples[0].InputPartitions["in"] != "DNA" {
		t.Error("partition metadata lost")
	}
	eb, _ := got.Get("b")
	if eb.Available {
		t.Error("availability lost")
	}
	if eb.Module.Form != module.FormREST {
		t.Errorf("form lost: %v", eb.Module.Form)
	}
	if !eb.Module.Bound() {
		// binder returned nil: module stays unbound.
		if _, err := eb.Module.Invoke(map[string]typesys.Value{"in": typesys.Str("x")}); err == nil {
			t.Error("unbound module should not invoke")
		}
	}
	// Optional parameter default survived.
	p, _ := ea.Module.Input("opt")
	if p.Default == nil || !p.Default.Equal(typesys.Intv(5)) {
		t.Errorf("default lost: %+v", p)
	}
	// Bound module works.
	out, err := ea.Module.Invoke(map[string]typesys.Value{"in": typesys.Str("zz")})
	if err != nil {
		t.Fatal(err)
	}
	if out["out"].String() != "[zz]" {
		t.Errorf("rebound invoke = %v", out["out"])
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"version":99,"entries":[]}`,
		`{"version":1,"entries":[{"module":{"id":"x","name":"x","form":"warp","inputs":[{"name":"i","struct":"string"}],"outputs":[{"name":"o","struct":"string"}]},"available":true}]}`,
		`{"version":1,"entries":[{"module":{"id":"x","name":"x","form":"local","inputs":[{"name":"i","struct":"wat"}],"outputs":[{"name":"o","struct":"string"}]},"available":true}]}`,
		`{"version":1,"entries":[{"module":{"id":"","name":"x","form":"local","inputs":[{"name":"i","struct":"string"}],"outputs":[{"name":"o","struct":"string"}]},"available":true}]}`,
	}
	for i, s := range cases {
		if _, err := Load(strings.NewReader(s), nil); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("m-%d-%d", g, i)
				r.MustRegister(mod(id, "P", module.KindAnalysis))
				r.Get(id)
				r.Search("m-")
				r.SetExamples(id, nil)
				r.IDs()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 200 {
		t.Errorf("Len = %d", r.Len())
	}
}

// TestListingsStayInIDOrder: the ID-ordered listings walk the slice
// Register maintains, so out-of-order registration, availability flips
// and a Save/Load round trip must all leave IDs, Modules and Available
// sorted and current.
func TestListingsStayInIDOrder(t *testing.T) {
	r := New()
	for _, id := range []string{"m", "c", "x", "a", "k", "b"} {
		r.MustRegister(mod(id, "EBI", module.KindRetrieval))
	}
	check := func(r *Registry, wantAvail []string) {
		t.Helper()
		all := []string{"a", "b", "c", "k", "m", "x"}
		if got := r.IDs(); !reflect.DeepEqual(got, all) {
			t.Errorf("IDs = %v, want %v", got, all)
		}
		var mods []string
		for _, m := range r.Modules() {
			mods = append(mods, m.ID)
		}
		if !reflect.DeepEqual(mods, all) {
			t.Errorf("Modules = %v, want %v", mods, all)
		}
		var avail []string
		for _, m := range r.Available() {
			avail = append(avail, m.ID)
		}
		if !reflect.DeepEqual(avail, wantAvail) {
			t.Errorf("Available = %v, want %v", avail, wantAvail)
		}
	}
	check(r, []string{"a", "b", "c", "k", "m", "x"})

	for _, id := range []string{"x", "b"} {
		if err := r.SetAvailable(id, false); err != nil {
			t.Fatal(err)
		}
	}
	check(r, []string{"a", "c", "k", "m"})

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, []string{"a", "c", "k", "m"})

	if err := loaded.SetAvailable("b", true); err != nil {
		t.Fatal(err)
	}
	check(loaded, []string{"a", "b", "c", "k", "m"})
}

// TestGenerationCountsEachChange: Register and every availability flip
// move Generation once per module; calls that flip nothing leave it
// alone.
func TestGenerationCountsEachChange(t *testing.T) {
	r := New()
	step := func(what string, want uint64, fn func()) {
		t.Helper()
		before := r.Generation()
		fn()
		if d := r.Generation() - before; d != want {
			t.Errorf("%s moved Generation by %d, want %d", what, d, want)
		}
	}
	step("Register", 1, func() { r.MustRegister(mod("a", "KEGG", module.KindMapping)) })
	step("Register", 1, func() { r.MustRegister(mod("b", "KEGG", module.KindMapping)) })
	step("duplicate Register", 0, func() { _ = r.Register(mod("a", "KEGG", module.KindMapping)) })
	step("SetAvailable(false)", 1, func() { _ = r.SetAvailable("a", false) })
	step("SetAvailable(false) again", 0, func() { _ = r.SetAvailable("a", false) })
	step("SetAvailable(true)", 1, func() { _ = r.SetAvailable("a", true) })
	step("SetAvailable(false) of b", 1, func() { _ = r.SetAvailable("b", false) })
	step("SetAvailable(true) of b", 1, func() { _ = r.SetAvailable("b", true) })
	step("SetExamples", 0, func() { _ = r.SetExamples("b", nil) })
}
