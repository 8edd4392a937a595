package transport

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/typesys"
)

// newServerFixture registers two modules — a well-behaved reverser and a
// picky one that rejects short inputs — and serves them over both forms.
func newServerFixture(t *testing.T) (*registry.Registry, *httptest.Server, *httptest.Server) {
	t.Helper()
	reg := registry.New()

	rev := &module.Module{
		ID: "reverse", Name: "Reverse", Form: module.FormREST,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "Seq"}},
	}
	rev.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		s := []rune(string(in["seq"].(typesys.StringValue)))
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		return map[string]typesys.Value{"out": typesys.Str(string(s))}, nil
	}))
	reg.MustRegister(rev)

	picky := &module.Module{
		ID: "picky", Name: "Picky", Form: module.FormSOAP,
		Inputs: []module.Parameter{
			{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"},
			{Name: "n", Struct: typesys.IntType, Semantic: "Limit", Optional: true, Default: typesys.Intv(3)},
		},
		Outputs: []module.Parameter{{Name: "hits", Struct: typesys.ListOf(typesys.StringType), Semantic: "Acc"}},
	}
	picky.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		s := string(in["seq"].(typesys.StringValue))
		if len(s) < 2 {
			return nil, module.ErrRejectedInput
		}
		n := int(in["n"].(typesys.IntValue))
		items := make([]typesys.Value, 0, n)
		for i := 0; i < n; i++ {
			items = append(items, typesys.Str(s))
		}
		return map[string]typesys.Value{"hits": typesys.MustList(typesys.StringType, items...)}, nil
	}))
	reg.MustRegister(picky)

	restSrv := httptest.NewServer(RESTHandler(reg))
	soapSrv := httptest.NewServer(SOAPHandler(reg))
	t.Cleanup(restSrv.Close)
	t.Cleanup(soapSrv.Close)
	return reg, restSrv, soapSrv
}

func TestRESTInvoke(t *testing.T) {
	_, restSrv, _ := newServerFixture(t)
	exec := &RESTExecutor{BaseURL: restSrv.URL, ModuleID: "reverse"}
	out, err := exec.Invoke(map[string]typesys.Value{"seq": typesys.Str("ACGT")})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if !out["out"].Equal(typesys.Str("TGCA")) {
		t.Errorf("out = %v", out["out"])
	}
}

func TestRESTProxyModule(t *testing.T) {
	_, restSrv, _ := newServerFixture(t)
	// A client-side proxy module bound to the remote executor behaves like
	// the local one, including error classification.
	proxy := &module.Module{
		ID: "reverse-proxy", Name: "Reverse", Form: module.FormREST,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "Seq"}},
	}
	proxy.Bind(&RESTExecutor{BaseURL: restSrv.URL, ModuleID: "reverse"})
	out, err := proxy.Invoke(map[string]typesys.Value{"seq": typesys.Str("AAC")})
	if err != nil {
		t.Fatal(err)
	}
	if !out["out"].Equal(typesys.Str("CAA")) {
		t.Errorf("proxy out = %v", out["out"])
	}
}

func TestRESTErrors(t *testing.T) {
	reg, restSrv, _ := newServerFixture(t)

	// Unknown module.
	exec := &RESTExecutor{BaseURL: restSrv.URL, ModuleID: "ghost"}
	if _, err := exec.Invoke(map[string]typesys.Value{}); err == nil || !strings.Contains(err.Error(), "not-found") {
		t.Errorf("unknown module: %v", err)
	}

	// Remote validation error (wrong input name).
	exec = &RESTExecutor{BaseURL: restSrv.URL, ModuleID: "reverse"}
	if _, err := exec.Invoke(map[string]typesys.Value{"bogus": typesys.Str("x")}); err == nil || !strings.Contains(err.Error(), "validation") {
		t.Errorf("validation: %v", err)
	}

	// Retired module answers 404.
	if err := reg.SetAvailable("reverse", false); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")}); err == nil {
		t.Error("retired module should fail")
	}
	if err := reg.SetAvailable("reverse", true); err != nil {
		t.Fatal(err)
	}

	// Unreachable endpoint.
	dead := &RESTExecutor{BaseURL: "http://127.0.0.1:1", ModuleID: "reverse"}
	if _, err := dead.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")}); err == nil {
		t.Error("unreachable endpoint should fail")
	}
}

func TestRESTListAndSignature(t *testing.T) {
	reg, restSrv, _ := newServerFixture(t)
	ids, err := ListRemoteModules(restSrv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "picky" || ids[1] != "reverse" {
		t.Errorf("ids = %v", ids)
	}
	reg.SetAvailable("picky", false)
	ids, _ = ListRemoteModules(restSrv.URL, nil)
	if len(ids) != 1 {
		t.Errorf("after retire ids = %v", ids)
	}

	resp, err := http.Get(restSrv.URL + "/modules/reverse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("signature status = %d", resp.StatusCode)
	}

	resp2, err := http.Get(restSrv.URL + "/modules/ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost status = %d", resp2.StatusCode)
	}
}

func TestSOAPInvoke(t *testing.T) {
	_, _, soapSrv := newServerFixture(t)
	exec := &SOAPExecutor{Endpoint: soapSrv.URL, ModuleID: "picky"}
	out, err := exec.Invoke(map[string]typesys.Value{"seq": typesys.Str("ACGT"), "n": typesys.Intv(2)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	want := typesys.MustList(typesys.StringType, typesys.Str("ACGT"), typesys.Str("ACGT"))
	if !out["hits"].Equal(want) {
		t.Errorf("hits = %v", out["hits"])
	}
}

func TestSOAPExecutionFault(t *testing.T) {
	_, _, soapSrv := newServerFixture(t)
	exec := &SOAPExecutor{Endpoint: soapSrv.URL, ModuleID: "picky"}
	_, err := exec.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")})
	if err == nil || !strings.Contains(err.Error(), "Execution") {
		t.Errorf("execution fault: %v", err)
	}

	// Wrapped in a proxy module, the remote execution fault becomes an
	// ExecutionError — exactly what the generator needs to drop the combo.
	proxy := &module.Module{
		ID: "p", Name: "p", Form: module.FormSOAP,
		Inputs: []module.Parameter{
			{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"},
			{Name: "n", Struct: typesys.IntType, Semantic: "Limit", Optional: true, Default: typesys.Intv(1)},
		},
		Outputs: []module.Parameter{{Name: "hits", Struct: typesys.ListOf(typesys.StringType), Semantic: "Acc"}},
	}
	proxy.Bind(exec)
	_, err = proxy.Invoke(map[string]typesys.Value{"seq": typesys.Str("x")})
	if !module.IsExecutionError(err) {
		t.Errorf("expected ExecutionError, got %v", err)
	}
}

// TestExecutorPanicIsExecutionFault: a module whose executor panics is
// answered, in either wire format, with the format's execution fault, so
// a remote caller records an abnormal termination and does not retry.
// Unrecovered, the panic drops the connection and the caller sees a
// transient connection fault.
func TestExecutorPanicIsExecutionFault(t *testing.T) {
	sig := func(id string) *module.Module {
		return &module.Module{
			ID: id, Name: id, Form: module.FormREST,
			Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: "Seq"}},
			Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType, Semantic: "Seq"}},
		}
	}
	reg := registry.New()
	boom := sig("boom")
	boom.Bind(module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		panic("index out of range")
	}))
	reg.MustRegister(boom)
	restSrv := httptest.NewServer(RESTHandler(reg))
	defer restSrv.Close()
	soapSrv := httptest.NewServer(SOAPHandler(reg))
	defer soapSrv.Close()

	for _, c := range []struct {
		name string
		exec module.Executor
	}{
		{"rest", &RESTExecutor{BaseURL: restSrv.URL, ModuleID: "boom"}},
		{"soap", &SOAPExecutor{Endpoint: soapSrv.URL, ModuleID: "boom"}},
	} {
		proxy := sig("boom-proxy")
		proxy.Bind(c.exec)
		_, err := proxy.Invoke(map[string]typesys.Value{"seq": typesys.Str("ACGT")})
		if !module.IsExecutionError(err) || module.IsTransient(err) {
			t.Errorf("%s: panicking executor gave %v, want an execution error that is not transient", c.name, err)
		}
	}
}

func TestSOAPFaults(t *testing.T) {
	_, _, soapSrv := newServerFixture(t)
	exec := &SOAPExecutor{Endpoint: soapSrv.URL, ModuleID: "ghost"}
	if _, err := exec.Invoke(nil); err == nil || !strings.Contains(err.Error(), "NotFound") {
		t.Errorf("NotFound fault: %v", err)
	}

	// Malformed envelope.
	resp, err := http.Post(soapSrv.URL, "text/xml", strings.NewReader("<not-xml"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed status = %d", resp.StatusCode)
	}

	// GET not allowed.
	resp2, err := http.Get(soapSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp2.StatusCode)
	}
}

func TestBindRemote(t *testing.T) {
	_, restSrv, soapSrv := newServerFixture(t)
	restM := &module.Module{ID: "reverse", Name: "r", Form: module.FormREST,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType}},
		Outputs: []module.Parameter{{Name: "out", Struct: typesys.StringType}}}
	soapM := &module.Module{ID: "picky", Name: "p", Form: module.FormSOAP,
		Inputs: []module.Parameter{
			{Name: "seq", Struct: typesys.StringType},
			{Name: "n", Struct: typesys.IntType, Optional: true, Default: typesys.Intv(1)}},
		Outputs: []module.Parameter{{Name: "hits", Struct: typesys.ListOf(typesys.StringType)}}}
	localM := &module.Module{ID: "l", Name: "l", Form: module.FormLocal,
		Inputs:  []module.Parameter{{Name: "x", Struct: typesys.StringType}},
		Outputs: []module.Parameter{{Name: "y", Struct: typesys.StringType}}}

	BindRemote(restM, restSrv.URL, soapSrv.URL, nil)
	BindRemote(soapM, restSrv.URL, soapSrv.URL, nil)
	BindRemote(localM, restSrv.URL, soapSrv.URL, nil)

	if !restM.Bound() || !soapM.Bound() {
		t.Fatal("remote modules should be bound")
	}
	if localM.Bound() {
		t.Error("local module should stay unbound")
	}
	out, err := restM.Invoke(map[string]typesys.Value{"seq": typesys.Str("AB")})
	if err != nil || !out["out"].Equal(typesys.Str("BA")) {
		t.Errorf("rest invoke = %v, %v", out, err)
	}
	out, err = soapM.Invoke(map[string]typesys.Value{"seq": typesys.Str("AB")})
	if err != nil {
		t.Fatalf("soap invoke: %v", err)
	}
	if out["hits"].(typesys.ListValue).Items[0].String() != "AB" {
		t.Errorf("soap hits = %v", out["hits"])
	}
}

func genXMLValue(r *rand.Rand, depth int) typesys.Value {
	max := 6
	if depth <= 0 {
		max = 4
	}
	switch r.Intn(max) {
	case 0:
		return typesys.Str("s" + string(rune('a'+r.Intn(26))) + "<&>\"'")
	case 1:
		return typesys.Intv(int64(r.Intn(4000) - 2000))
	case 2:
		return typesys.Floatv(float64(r.Intn(1000)) / 16)
	case 3:
		return typesys.Boolv(r.Intn(2) == 0)
	case 4:
		n := r.Intn(3)
		items := make([]typesys.Value, n)
		for i := range items {
			items[i] = typesys.Str(string(rune('a' + r.Intn(26))))
		}
		return typesys.MustList(typesys.StringType, items...)
	default:
		n := 1 + r.Intn(3)
		entries := make([]typesys.RecordEntry, n)
		for i := range entries {
			entries[i] = typesys.RecordEntry{Name: string(rune('a' + i)), Val: genXMLValue(r, depth-1)}
		}
		return typesys.MustRecord(entries...)
	}
}

func TestXMLValueRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func() bool {
		v := genXMLValue(r, 2)
		x, err := valueToXML(v)
		if err != nil {
			return false
		}
		got, err := valueFromXML(x)
		if err != nil {
			return false
		}
		return got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestXMLValueErrors(t *testing.T) {
	bad := []xmlValue{
		{Kind: "mystery"},
		{Kind: "int", Text: "NaN"},
		{Kind: "float", Text: "x"},
		{Kind: "bool", Text: "maybe"},
		{Kind: "list", Elem: "wat"},
		{Kind: "record", Fields: []xmlField{{Name: "a", Value: nil}}},
	}
	for _, x := range bad {
		if _, err := valueFromXML(x); err == nil {
			t.Errorf("valueFromXML(%+v): expected error", x)
		}
	}
	if _, err := valueToXML(nil); err == nil {
		t.Error("nil value should fail")
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct{ path, soapAction, want string }{
		{"/modules/getRecord/invoke", "", "getRecord"},
		{"/rest/modules/getRecord/invoke", "", "getRecord"},
		{"/modules/getRecord", "", "getRecord"},
		{"/modules", "", ""},
		{"/soap", "", ""},
		{"/soap", `"getRecord"`, "getRecord"},
	} {
		req := httptest.NewRequest(http.MethodPost, "http://x"+tc.path, nil)
		if tc.soapAction != "" {
			req.Header.Set("SOAPAction", tc.soapAction)
		}
		if got := ModuleOf(req); got != tc.want {
			t.Fatalf("ModuleOf(%s, SOAPAction %s) = %q, want %q", tc.path, tc.soapAction, got, tc.want)
		}
	}
}

func TestRESTMethodNotAllowed(t *testing.T) {
	_, restSrv, _ := newServerFixture(t)
	resp, err := http.Post(restSrv.URL+"/modules", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /modules status = %d", resp.StatusCode)
	}
	resp2, err := http.Get(restSrv.URL + "/modules/reverse/invoke")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET invoke status = %d", resp2.StatusCode)
	}
}

// TestRESTDuringFlips reads signatures and invokes over REST and SOAP
// while a module's availability flips continuously: each handler reads
// availability through the registry lock, so the race detector stays
// quiet, and every answer is either the module (200) or its absence
// (404), never anything else.
func TestRESTDuringFlips(t *testing.T) {
	reg, _, _ := newServerFixture(t)
	rest, soap := RESTHandler(reg), SOAPHandler(reg)
	done := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := reg.SetAvailable("reverse", i%2 == 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	requests := []func() (http.Handler, *http.Request){
		func() (http.Handler, *http.Request) {
			return rest, httptest.NewRequest(http.MethodGet, "/modules/reverse", nil)
		},
		func() (http.Handler, *http.Request) {
			return rest, httptest.NewRequest(http.MethodPost, "/modules/reverse/invoke",
				strings.NewReader(`{"inputs":{"seq":{"kind":"string","str":"ACGT"}}}`))
		},
		func() (http.Handler, *http.Request) {
			return soap, httptest.NewRequest(http.MethodPost, "/soap", strings.NewReader(
				`<Envelope><Body><InvokeRequest module="reverse"><Input name="seq"><Value kind="string">ACGT</Value></Input></InvokeRequest></Body></Envelope>`))
		},
	}
	for i := 0; i < 200; i++ {
		for _, req := range requests {
			h, r := req()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				t.Fatalf("%s %s during flips: status %d: %s", r.Method, r.URL.Path, rec.Code, rec.Body)
			}
		}
	}
	close(done)
	<-flipped
}
