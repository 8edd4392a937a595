package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// fakeGen is a counting core.ExampleGenerator whose runs can be slowed
// down to force request overlap.
type fakeGen struct {
	runs  atomic.Int64
	delay time.Duration
	fail  atomic.Bool
	out   func(m *module.Module) dataexample.Set
}

func (g *fakeGen) Generate(m *module.Module) (dataexample.Set, *core.Report, error) {
	g.runs.Add(1)
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	if g.fail.Load() {
		return nil, nil, fmt.Errorf("fake generator down")
	}
	return g.out(m), &core.Report{ModuleID: m.ID}, nil
}

func newFakeGen(t testing.TB, delay time.Duration) *fakeGen {
	return &fakeGen{
		delay: delay,
		out:   func(m *module.Module) dataexample.Set { return testSet(t, m.ID, 2) },
	}
}

// TestSingleflightExactlyOneRun is the acceptance criterion: N identical
// concurrent generation requests for the same module perform exactly one
// generator run.
func TestSingleflightExactlyOneRun(t *testing.T) {
	st, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := newFakeGen(t, 20*time.Millisecond)
	src := NewSource(st, gen)
	m := &module.Module{ID: "herd"}

	const N = 32
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make([]error, N)
	hashes := make([]string, N)
	for i := 0; i < N; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // thundering herd: everyone takes off together
			set, _, err := src.Generate(m)
			errs[i] = err
			if err == nil {
				hashes[i], _ = HashSet(set)
			}
		}(i)
	}
	start.Done()
	done.Wait()

	if got := gen.runs.Load(); got != 1 {
		t.Fatalf("generator ran %d times for %d concurrent requests, want exactly 1", got, N)
	}
	if got := src.Runs(); got != 1 {
		t.Errorf("Source.Runs() = %d, want 1", got)
	}
	want, _ := HashSet(testSet(t, "herd", 2))
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if hashes[i] != want {
			t.Errorf("request %d saw hash %s, want %s", i, hashes[i], want)
		}
	}
	// The result was persisted before any response left.
	if _, _, ok := st.Get("herd"); !ok {
		t.Error("generated set not persisted")
	}
	// A later burst is served from the store: still one total run.
	for i := 0; i < 4; i++ {
		if _, rep, err := src.Generate(m); err != nil || rep != nil {
			t.Errorf("store hit: rep=%v err=%v, want nil/nil", rep, err)
		}
	}
	if got := gen.runs.Load(); got != 1 {
		t.Errorf("store hits re-ran the generator: %d runs", got)
	}
}

func TestSourceStoreHitSkipsGeneration(t *testing.T) {
	st, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := testSet(t, "warm", 3)
	if _, _, err := st.Put("warm", pre); err != nil {
		t.Fatal(err)
	}
	gen := newFakeGen(t, 0)
	src := NewSource(st, gen)
	set, rep, err := src.Generate(&module.Module{ID: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Error("store hit should return a nil report")
	}
	if len(set) != 3 || gen.runs.Load() != 0 {
		t.Errorf("store hit: %d examples, %d runs; want 3, 0", len(set), gen.runs.Load())
	}
}

func TestSourceFailureIsRetriable(t *testing.T) {
	st, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := newFakeGen(t, 0)
	gen.fail.Store(true)
	src := NewSource(st, gen)
	m := &module.Module{ID: "flaky"}
	if _, _, err := src.Generate(m); err == nil {
		t.Fatal("expected failure")
	}
	if _, _, ok := st.Get("flaky"); ok {
		t.Error("failed generation must not persist anything")
	}
	gen.fail.Store(false)
	if _, _, err := src.Generate(m); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if gen.runs.Load() != 2 {
		t.Errorf("runs = %d, want 2 (failure not pinned)", gen.runs.Load())
	}
}

func TestRefreshRegeneratesAndDetectsChange(t *testing.T) {
	st, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := newFakeGen(t, 0)
	src := NewSource(st, gen)
	m := &module.Module{ID: "mod"}
	if _, _, err := src.Generate(m); err != nil {
		t.Fatal(err)
	}
	// Same behaviour: a refresh runs the generator but changes nothing.
	_, _, rep, changed, err := src.RefreshStored(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Error("refresh must return the fresh generation report")
	}
	if changed {
		t.Error("identical regeneration should be a content no-op")
	}
	if gen.runs.Load() != 2 {
		t.Errorf("runs = %d, want 2", gen.runs.Load())
	}
	// Behaviour drifts: the refresh lands the new content.
	gen.out = func(mm *module.Module) dataexample.Set { return testSet(t, mm.ID+"-v2", 2) }
	_, _, _, changed, err = src.RefreshStored(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("drifted behaviour should change the stored set")
	}
	want, _ := HashSet(testSet(t, "mod-v2", 2))
	if h, _ := st.Hash("mod"); h != want {
		t.Errorf("store hash after refresh = %s, want %s", h, want)
	}
}
