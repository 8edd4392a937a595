package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/simulation"
	"dexa/internal/store"
)

// catalogNode is one node serving the full simulated catalog, every
// module annotated in a memory-only store, with an indexed comparer, as
// dexa-serve runs it.
type catalogNode struct {
	srv  *Server
	st   *store.Store
	sets map[string]dataexample.Set // each module's generated annotation
	ids  []string                   // the annotated modules with more than one example
}

func newCatalogNode(t *testing.T) *catalogNode {
	t.Helper()
	u := simulation.NewUniverse()
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	n := &catalogNode{st: st, sets: map[string]dataexample.Set{}}
	for _, m := range u.Registry.Modules() {
		set, _, err := u.Gen.Generate(m)
		if err != nil || len(set) == 0 {
			continue
		}
		if _, _, err := st.Put(m.ID, set); err != nil {
			t.Fatal(err)
		}
		n.sets[m.ID] = set
		if len(set) > 1 {
			n.ids = append(n.ids, m.ID)
		}
	}
	cmp := match.NewComparer(u.Ont, nil)
	cmp.Index = match.NewCatalogIndex(u.Ont, u.Registry.Modules())
	n.srv = &Server{Registry: u.Registry, Store: st, Comparer: cmp}
	return n
}

// matches serves one GET /matches and returns the body.
func (n *catalogNode) matches(t *testing.T, h http.Handler) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/matches", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/matches status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// fresh renders the /matches body a build from nothing gives for the
// store's current content.
func (n *catalogNode) fresh(t *testing.T) []byte {
	t.Helper()
	s := n.srv
	mm, err := s.Comparer.MatchMatrixFromKeyedSets(context.Background(), s.Registry.Modules(), s.storeKeyed)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeJSONBody(matchesResponse{State: s.matrixStateKey(), Matrix: mm})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMatchesIncrementalByteIdentical: over a seeded random sequence of
// annotation writes on the full catalog — content changes, restores,
// deletes and re-annotations, one to three between two reads — every
// /matches body, built incrementally and spliced from kept cell
// fragments, equals byte for byte the encodeJSONBody rendering of a
// fresh build.
func TestMatchesIncrementalByteIdentical(t *testing.T) {
	n := newCatalogNode(t)
	h := n.srv.Handler()
	r := rand.New(rand.NewSource(26))
	if got, want := n.matches(t, h), n.fresh(t); !bytes.Equal(got, want) {
		t.Fatal("first /matches differs from a fresh build")
	}
	for step := 0; step < 40; step++ {
		for w := 1 + r.Intn(3); w > 0; w-- {
			id := n.ids[r.Intn(len(n.ids))]
			set := n.sets[id]
			var err error
			switch r.Intn(5) {
			case 0:
				err = n.st.Delete(id)
			case 1:
				_, _, err = n.st.Put(id, set)
			default:
				_, _, err = n.st.Put(id, set[:1+r.Intn(len(set)-1)])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := n.matches(t, h), n.fresh(t); !bytes.Equal(got, want) {
			t.Fatalf("step %d: incremental /matches (%d bytes) differs from a fresh build (%d bytes)", step, len(got), len(want))
		}
	}
}

// TestMatchesRebuildAllocBudget bounds the allocations of a /matches
// that follows one annotation write on the full catalog: the build
// realigns only the written module's pairs and the body encodes only
// its changed cells. The write itself is not counted. The budget is the
// measured count (119) with under 10% headroom; the full rebuild and
// encode this replaced allocated 728 on the same request, 484 of them
// for the state key, whose strings were written to the hash one by one.
func TestMatchesRebuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const budget = 130
	n := newCatalogNode(t)
	h := n.srv.Handler()
	id := n.ids[0]
	alt := [2]dataexample.Set{n.sets[id], n.sets[id][:len(n.sets[id])-1]}
	req := httptest.NewRequest(http.MethodGet, "/matches", nil)
	w := &discardWriter{header: http.Header{}}
	i := 0
	write := func() {
		i++
		if _, _, err := n.st.Put(id, alt[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	serve := func() {
		clear(w.header)
		h.ServeHTTP(w, req)
	}
	if got := allocsAfter(20, write, serve); got > budget {
		t.Errorf("/matches after one write allocates %.0f, budget %d", got, budget)
	}
	if w.status != http.StatusOK {
		t.Fatalf("/matches status %d", w.status)
	}
}

// allocsAfter is testing.AllocsPerRun for a call that follows an
// unmeasured step: the mean allocations of serve over runs, each run
// after prep, on one processor.
func allocsAfter(runs int, prep, serve func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prep()
	serve() // warm up
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		prep()
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(runs)
}
