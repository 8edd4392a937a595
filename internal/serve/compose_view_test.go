package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"

	"dexa/internal/compose"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/store"
	"dexa/internal/typesys"
)

// viewModule builds an in->out module mapping its "seq" input to
// prefix+input. A non-empty extra adds an optional secondary input
// annotated with that concept, so avoid=extra drops the module from its
// signature group without emptying the group.
func viewModule(id, provider, in, out, extra, prefix string) *module.Module {
	m := &module.Module{
		ID: id, Name: "module " + id, Provider: provider,
		Inputs:  []module.Parameter{{Name: "seq", Struct: typesys.StringType, Semantic: in}},
		Outputs: []module.Parameter{{Name: "acc", Struct: typesys.StringType, Semantic: out}},
	}
	if extra != "" {
		m.Inputs = append(m.Inputs, module.Parameter{Name: "note", Struct: typesys.StringType, Semantic: extra, Optional: true})
	}
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"acc": typesys.Str(prefix + string(in["seq"].(typesys.StringValue)))}, nil
	}))
	return m
}

// prefixSet is the example set of a module that prepends prefix.
func prefixSet(prefix string) dataexample.Set {
	var set dataexample.Set
	for _, in := range []string{"ACGT", "MKTW"} {
		set = append(set, dataexample.Example{
			Inputs:  map[string]typesys.Value{"seq": typesys.Str(in)},
			Outputs: map[string]typesys.Value{"acc": typesys.Str(prefix + in)},
		})
	}
	return set
}

type viewFixture struct {
	ont *ontology.Ontology
	reg *registry.Registry
	st  *store.Store
	srv *Server
	ts  *httptest.Server
}

// newViewFixture is a small annotated catalog with one-step (DNA->Acc,
// Seq->Acc) and two-step (DNA->Prot->Acc) plans, two behavior classes in
// the Seq->Acc group, a member avoid=Note thins out of it, and two
// providers.
func newViewFixture(t *testing.T) *viewFixture {
	t.Helper()
	o := ontology.New("t")
	o.MustAddConcept("Data", "")
	o.MustAddConcept("Seq", "", "Data")
	o.MustAddConcept("DNA", "", "Seq")
	o.MustAddConcept("Prot", "", "Seq")
	o.MustAddConcept("Acc", "", "Data")
	o.MustAddConcept("Note", "", "Data")
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	f := &viewFixture{ont: o, reg: registry.New(), st: st}
	for _, m := range []struct{ id, provider, in, out, extra, prefix string }{
		{"alpha", "P1", "Seq", "Acc", "", "X:"},
		{"beta", "P1", "Seq", "Acc", "Note", "X:"},
		{"gamma", "P2", "Seq", "Acc", "", "Y:"},
		{"delta", "P2", "DNA", "Acc", "", "X:"},
		{"trans", "P1", "DNA", "Prot", "", ""},
	} {
		f.register(t, viewModule(m.id, m.provider, m.in, m.out, m.extra, m.prefix), m.prefix)
	}
	f.srv = &Server{Registry: f.reg, Store: st, Comparer: match.NewComparer(o, nil)}
	f.ts = httptest.NewServer(f.srv.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func (f *viewFixture) register(t *testing.T, m *module.Module, prefix string) {
	t.Helper()
	f.reg.MustRegister(m)
	if _, _, err := f.st.Put(m.ID, prefixSet(prefix)); err != nil {
		t.Fatal(err)
	}
}

// viewQueries covers plain, like=, use=, avoid= and depth-bounded plans.
var viewQueries = []string{
	"in=DNA&out=Acc",
	"in=DNA&out=Acc&like=alpha",
	"in=DNA&out=Acc&like=gamma",
	"in=DNA&out=Acc&use=Prot",
	"in=DNA&out=Acc&avoid=Note",
	"in=DNA&out=Acc&avoid=Prot&like=beta",
	"in=Seq&out=Acc&avoid=Note&like=alpha",
	"in=DNA&out=Acc&depth=1&use=DNA",
}

// oracle renders the /compose body of a freshly built planner — a view
// built for the one call from the store as it is now.
func (f *viewFixture) oracle(t *testing.T, query string) []byte {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	depth, _ := strconv.Atoi(q.Get("depth"))
	p := &compose.Planner{Ont: f.ont, Reg: f.reg, Keyed: f.srv.storeKeyed, MaxDepth: depth}
	plans, err := p.Plan(compose.Constraints{
		In: q.Get("in"), Out: q.Get("out"), MustUse: q["use"], MustAvoid: q["avoid"],
		Like: q.Get("like"), MaxDepth: depth,
	})
	if err != nil {
		t.Fatalf("oracle %s: %v", query, err)
	}
	body, err := encodeJSONBody(newComposeResponse(q.Get("in"), q.Get("out"), plans))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func (f *viewFixture) served(t *testing.T, query string) []byte {
	t.Helper()
	resp, err := http.Get(f.ts.URL + "/compose?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/compose?%s: status %d: %s", query, resp.StatusCode, body)
	}
	return body
}

// TestComposeViewNeverStale runs seeded random histories of availability
// flips (SetAvailable, RetireProvider), registrations of new modules and
// store writes and deletes. After every step each served /compose answer
// — planned over the server's cached per-version view — must equal, byte
// for byte, the answer of a freshly built planner.
func TestComposeViewNeverStale(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			f := newViewFixture(t)
			rng := rand.New(rand.NewSource(seed))
			concepts := []string{"Seq", "DNA", "Prot"}
			prefixes := []string{"X:", "Y:", "Z:"}
			pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
			check := func(step string) {
				t.Helper()
				for _, q := range viewQueries {
					if got, want := f.served(t, q), f.oracle(t, q); !bytes.Equal(got, want) {
						t.Fatalf("%s: /compose?%s is stale\n got: %.400s\nwant: %.400s", step, q, got, want)
					}
				}
			}
			check("start")
			for i := 0; i < 40; i++ {
				var step string
				switch op := rng.Intn(5); op {
				case 0:
					id, avail := pick(f.reg.IDs()), rng.Intn(2) == 0
					step = fmt.Sprintf("SetAvailable(%s, %v)", id, avail)
					if err := f.reg.SetAvailable(id, avail); err != nil {
						t.Fatal(err)
					}
				case 1:
					provider := pick([]string{"P1", "P2"})
					step = "RetireProvider(" + provider + ")"
					f.reg.RetireProvider(provider)
				case 2:
					id := fmt.Sprintf("new%d", i)
					in, extra, prefix := pick(concepts), pick([]string{"", "Note"}), pick(prefixes)
					step = fmt.Sprintf("Register(%s %s->Acc %q)", id, in, prefix)
					f.register(t, viewModule(id, pick([]string{"P1", "P2"}), in, "Acc", extra, prefix), prefix)
				case 3:
					id, prefix := pick(f.reg.IDs()), pick(prefixes)
					step = fmt.Sprintf("Put(%s, %q)", id, prefix)
					if _, _, err := f.st.Put(id, prefixSet(prefix)); err != nil {
						t.Fatal(err)
					}
				case 4:
					id := pick(f.reg.IDs())
					step = "Delete(" + id + ")"
					if err := f.st.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				check(fmt.Sprintf("step %d %s", i, step))
			}
		})
	}
}

// TestComposeDuringFlips races /compose requests against availability
// flips and store writes — the lazy class partition, the view cache and
// the version reads all run concurrently with the mutations — and, once
// the writers stop, every answer equals a freshly built planner's.
func TestComposeDuringFlips(t *testing.T) {
	f := newViewFixture(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(viewQueries); i++ {
				resp, err := http.Get(f.ts.URL + "/compose?" + viewQueries[(i+w)%len(viewQueries)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/compose status %d during flips", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	ids := f.reg.IDs()
	for i := 0; ; i++ {
		select {
		case <-done:
			for _, q := range viewQueries {
				if got, want := f.served(t, q), f.oracle(t, q); !bytes.Equal(got, want) {
					t.Fatalf("/compose?%s after the flips differs from a fresh planner\n got: %.400s\nwant: %.400s", q, got, want)
				}
			}
			return
		default:
		}
		id := ids[i%len(ids)]
		if err := f.reg.SetAvailable(id, i%3 != 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.st.Put(id, prefixSet([]string{"X:", "Y:"}[i%2])); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMatrixStateKeyFollowsEveryMutation: the matrix state key is
// memoised per catalogVersion, and after every kind of mutation — store
// Put, PutBatch and Delete, availability flips, Register, an index
// update, replicated applies, and a replication reset that revisits a
// sequence number with other content — the memoised key equals one
// computed afresh from content.
func TestMatrixStateKeyFollowsEveryMutation(t *testing.T) {
	f := newViewFixture(t)
	f.srv.Comparer.Index = match.NewCatalogIndex(f.ont, f.reg.Modules())
	SyncIndex(f.reg, f.srv.Comparer.Index)
	check := func(srv *Server, step string) string {
		t.Helper()
		key := srv.matrixStateKey()
		if fresh := srv.contentStateKey(srv.Comparer.Index.Generation()); key != fresh {
			t.Fatalf("after %s: memoised key %s, fresh %s", step, key, fresh)
		}
		return key
	}
	prev := check(f.srv, "start")
	for _, m := range []struct {
		name string
		do   func() error
	}{
		{"Put", func() error { _, _, err := f.st.Put("alpha", prefixSet("Z:")); return err }},
		{"PutBatch", func() error {
			_, err := f.st.PutBatch([]store.PutItem{{ID: "beta", Examples: prefixSet("Z:")}, {ID: "gamma", Examples: prefixSet("Z:")}})
			return err
		}},
		{"Delete", func() error { return f.st.Delete("delta") }},
		{"SetAvailable", func() error { return f.reg.SetAvailable("gamma", false) }},
		{"RetireProvider", func() error { f.reg.RetireProvider("P1"); return nil }},
		{"Register", func() error { return f.reg.Register(viewModule("omega", "P2", "Seq", "Acc", "", "X:")) }},
		{"index Update", func() error {
			f.srv.Comparer.Index.Update(viewModule("omega", "P2", "Seq", "Acc", "", "X:"))
			return nil
		}},
	} {
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		key := check(f.srv, m.name)
		if key == prev {
			t.Errorf("%s left the matrix state key unchanged", m.name)
		}
		prev = key
	}

	// A follower: replicated applies, then a reset to the same sequence
	// with other content (a divergent history being replaced).
	fst, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	follower := &Server{Registry: f.reg, Store: fst, Comparer: f.srv.Comparer}
	check(follower, "empty follower")
	recs, _, _ := f.st.TailSince(0, 0)
	if _, _, err := fst.ApplyReplicatedBatch(recs); err != nil {
		t.Fatal(err)
	}
	applied := check(follower, "replicated apply")
	_, seq := fst.ContentVersion()
	set := prefixSet("W:")
	hash, err := store.HashSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.ResetReplicated([]store.Record{{Seq: seq, Op: store.OpPut, Module: "alpha", Hash: hash, Version: 1, Examples: set}}, seq); err != nil {
		t.Fatal(err)
	}
	if _, again := fst.ContentVersion(); again != seq {
		t.Fatalf("reset moved seq %d -> %d; the revisit this step needs did not happen", seq, again)
	}
	if check(follower, "reset to the same seq") == applied {
		t.Error("a reset to other content at the same seq left the matrix state key unchanged")
	}
}
