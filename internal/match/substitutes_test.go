package match

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dexa/internal/core"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

// substituteWorld builds one target plus a mixed candidate field large
// enough for the parallel search to actually fan out.
func substituteWorld(t testing.TB) (*fixture, Unavailable, []*module.Module) {
	t.Helper()
	f := newFixture(t)
	target := seqModule("gone", prefixer("X:"))
	set, _, err := f.gen.Generate(target)
	if err != nil {
		t.Fatal(err)
	}
	un := Unavailable{Signature: target, Examples: set}
	var candidates []*module.Module
	for i := 0; i < 4; i++ {
		id := string(rune('a'+i)) + "-equiv"
		candidates = append(candidates, seqModule(id, prefixer("X:")))
	}
	candidates = append(candidates,
		seqModule("overlap-1", func(s string) (string, error) {
			if strings.Contains(s, "U") {
				return "Y:" + s, nil
			}
			return "X:" + s, nil
		}),
		seqModule("overlap-2", func(s string) (string, error) {
			if strings.Contains(s, "M") {
				return "Y:" + s, nil
			}
			return "X:" + s, nil
		}),
		seqModule("disjoint", prefixer("Z:")),
	)
	return f, un, candidates
}

// brokenModule fails every invocation with a persistent transport fault —
// the kind of error CompareAgainstExamples propagates rather than counts
// as behavioural disagreement.
func brokenModule(id, msg string) *module.Module {
	m := seqModule(id, prefixer("X:"))
	m.Bind(module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		return nil, module.Transient(id, module.FaultUnavailable, errors.New(msg))
	}))
	return m
}

// TestFindSubstitutesSkipsBrokenCandidate: one candidate whose executor
// fails with a non-execution error (here a dead transport endpoint) must
// land in Skipped with its reason, not abort the search. Abnormal
// terminations stay inside the comparison as disagreement — only errors
// that would previously have failed the whole search become skips.
func TestFindSubstitutesSkipsBrokenCandidate(t *testing.T) {
	f, un, candidates := substituteWorld(t)
	broken := brokenModule("broken", "connection refused: candidate endpoint is gone")
	candidates = append([]*module.Module{broken}, candidates...)

	subs, err := f.cmp.FindSubstitutes(un, candidates)
	if err != nil {
		t.Fatalf("search aborted on a broken candidate: %v", err)
	}
	if len(subs.Ranked) != 6 {
		t.Fatalf("ranked = %d, want 6 (4 equivalent + 2 overlapping)", len(subs.Ranked))
	}
	if len(subs.Skipped) != 1 {
		t.Fatalf("skipped = %+v, want exactly the broken candidate", subs.Skipped)
	}
	sk := subs.Skipped[0]
	if sk.ModuleID != "broken" || !strings.Contains(sk.Reason, "connection refused") {
		t.Errorf("skip record = %+v", sk)
	}
	for _, c := range subs.Ranked {
		if c.Module.ID == "broken" {
			t.Error("broken candidate leaked into the ranking")
		}
	}
}

// TestFindSubstitutesParallelMatchesSequential is the golden determinism
// test: the ranking and skip list must be byte-identical at every worker
// width, including the sequential width of one.
func TestFindSubstitutesParallelMatchesSequential(t *testing.T) {
	f, un, candidates := substituteWorld(t)
	candidates = append(candidates, brokenModule("broken", "boom"))
	f.cmp.Workers = 1
	sequential, err := f.cmp.FindSubstitutes(un, candidates)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 32} {
		f.cmp.Workers = workers
		got, err := f.cmp.FindSubstitutes(un, candidates)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, sequential) {
			t.Errorf("workers=%d: result differs from sequential search", workers)
		}
	}
}

// TestFindSubstitutesConcurrentCallers runs many complete searches at
// once over one Comparer (run with -race to back the concurrency doc).
func TestFindSubstitutesConcurrentCallers(t *testing.T) {
	f, un, candidates := substituteWorld(t)
	want, err := f.cmp.FindSubstitutes(un, candidates)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := f.cmp.FindSubstitutes(un, candidates)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent search diverged: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCachedComparerGeneratesOncePerModule pins the memoization: a cached
// comparer comparing one target against many candidates generates the
// target's example set exactly once.
func TestCachedComparerGeneratesOncePerModule(t *testing.T) {
	f := newFixture(t)
	invocations := map[string]int{}
	var mu sync.Mutex
	counted := func(id string) *module.Module {
		m := seqModule(id, prefixer("X:"))
		m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
			mu.Lock()
			invocations[id]++
			mu.Unlock()
			s := string(in["seq"].(typesys.StringValue))
			return map[string]typesys.Value{"acc": typesys.Str("X:" + s)}, nil
		}))
		return m
	}
	target := counted("target")
	cands := []*module.Module{counted("c1"), counted("c2"), counted("c3")}

	cmp := &Comparer{Ont: f.ont, Gen: core.NewCachedGenerator(f.gen)}
	for _, c := range cands {
		if _, err := cmp.Compare(target, c); err != nil {
			t.Fatal(err)
		}
	}
	// Seq partitions into {Seq, DNA, RNA, Prot}: 4 combinations per
	// generation. The target must have been generated once, not once per
	// candidate.
	if invocations["target"] != 4 {
		t.Errorf("target invoked %d times, want 4 (single generation)", invocations["target"])
	}
	for _, c := range cands {
		if invocations[c.ID] != 4 {
			t.Errorf("candidate %s invoked %d times, want 4", c.ID, invocations[c.ID])
		}
	}
}
