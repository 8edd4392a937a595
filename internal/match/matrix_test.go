package match

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// matrixWorld builds a small catalog with every verdict represented plus
// one unannotated module, and generates each set once.
func matrixWorld(t testing.TB) (*fixture, []*module.Module, map[string]dataexample.Set) {
	t.Helper()
	f := newFixture(t)
	renamed := seqModule("renamed-equiv", prefixer("X:"))
	renamed.Inputs[0].Name = "sequence"
	renamed.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		return map[string]typesys.Value{"acc": typesys.Str("X:" + string(in["sequence"].(typesys.StringValue)))}, nil
	}))
	dna := seqModule("dna-only", prefixer("X:"))
	dna.Inputs[0].Semantic = "DNA"
	mods := []*module.Module{
		seqModule("aa-equiv", prefixer("X:")),
		seqModule("bb-equiv", prefixer("X:")),
		seqModule("disjoint", prefixer("Z:")),
		seqModule("overlap", func(s string) (string, error) {
			if strings.Contains(s, "U") {
				return "Y:" + s, nil
			}
			return "X:" + s, nil
		}),
		renamed,
		dna,
		seqModule("no-examples", prefixer("X:")), // deliberately unannotated
	}
	sets := map[string]dataexample.Set{}
	for _, m := range mods {
		if m.ID == "no-examples" {
			continue
		}
		set, _, err := f.gen.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		sets[m.ID] = set
	}
	return f, mods, sets
}

// naiveMatrix is the oracle: the plain ordered double loop with no
// index, no mirroring and no concurrency.
func naiveMatrix(f *fixture, mods []*module.Module, mode Mode, sets map[string]dataexample.Set) []MatrixCell {
	byID := map[string]*module.Module{}
	var ids []string
	for id := range sets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, m := range mods {
		byID[m.ID] = m
	}
	var cells []MatrixCell
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			mapping, ok := MapParameters(f.ont, byID[a], byID[b], mode)
			if !ok {
				continue
			}
			res := CompareExampleSets(a, b, sets[a], sets[b], mapping)
			if res.Verdict == Incomparable {
				continue
			}
			cells = append(cells, MatrixCell{
				Target: a, Candidate: b, Verdict: res.Verdict.String(),
				Score: res.Score(), Compared: res.Compared, Agreeing: res.Agreeing,
			})
		}
	}
	return cells
}

// TestMatchMatrixAgainstNaive: with and without the index, in both
// modes, the sharded + mirrored matrix must equal the naive ordered
// double loop cell for cell, and the stats must account for every pair.
func TestMatchMatrixAgainstNaive(t *testing.T) {
	f, mods, sets := matrixWorld(t)
	for _, mode := range []Mode{ModeExact, ModeRelaxed} {
		f.cmp.Mode = mode
		want := naiveMatrix(f, mods, mode, sets)
		for _, indexed := range []bool{false, true} {
			f.cmp.Index = nil
			if indexed {
				f.cmp.Index = NewCatalogIndex(f.ont, mods)
			}
			mm, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyedSource(sets))
			if err != nil {
				t.Fatalf("%s/indexed=%v: %v", mode, indexed, err)
			}
			if !reflect.DeepEqual(mm.Cells, want) {
				t.Errorf("%s/indexed=%v: cells diverged from naive sweep\n got %+v\nwant %+v",
					mode, indexed, mm.Cells, want)
			}
			// Every pair is either pruned, aligned, mirrored, or
			// mapping-infeasible without an index to prune it. In exact mode
			// with the index the prune is complete, so the first three
			// account for every pair exactly.
			got := mm.Stats.Pruned + mm.Stats.Compared + mm.Stats.Mirrored
			if got > mm.Stats.Pairs {
				t.Errorf("%s/indexed=%v: pruned+compared+mirrored = %d > %d pairs",
					mode, indexed, got, mm.Stats.Pairs)
			}
			if mode == ModeExact && indexed && got != mm.Stats.Pairs {
				t.Errorf("exact/indexed: pruned+compared+mirrored = %d, want %d pairs",
					got, mm.Stats.Pairs)
			}
			if len(mm.Missing) != 1 || mm.Missing[0] != "no-examples" {
				t.Errorf("missing = %v", mm.Missing)
			}
			if indexed && mode == ModeExact && mm.Stats.Pruned == 0 {
				t.Error("exact indexed sweep pruned nothing despite infeasible pairs")
			}
			if mode == ModeExact && indexed && mm.Stats.Mirrored == 0 {
				t.Error("exact sweep mirrored nothing despite symmetric pairs")
			}
		}
	}
}

// TestMatchMatrixDeterministicAcrossWorkers pins byte-identical output
// at every worker width.
func TestMatchMatrixDeterministicAcrossWorkers(t *testing.T) {
	f, mods, sets := matrixWorld(t)
	f.cmp.Index = NewCatalogIndex(f.ont, mods)
	f.cmp.Workers = 1
	want, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyedSource(sets))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 16} {
		f.cmp.Workers = workers
		got, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyedSource(sets))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: matrix differs from sequential build", workers)
		}
	}
}

// TestMatchMatrixCancellation: a cancelled context aborts the sweep.
func TestMatchMatrixCancellation(t *testing.T) {
	f, mods, sets := matrixWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.cmp.Workers = 1
	if _, err := f.cmp.MatchMatrixFromKeyedSets(ctx, mods, keyedSource(sets)); err == nil {
		t.Error("cancelled sweep should error")
	}
}

// TestMatchMatrixGolden pins the serialized JSON shape — field names,
// cell ordering, stats — against a checked-in golden file. Regenerate
// with: go test ./internal/match -run TestMatchMatrixGolden -update
func TestMatchMatrixGolden(t *testing.T) {
	f, mods, sets := matrixWorld(t)
	f.cmp.Index = NewCatalogIndex(f.ont, mods)
	f.cmp.Workers = 1
	mm, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyedSource(sets))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(mm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "matrix_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if string(got) != string(want) {
		t.Errorf("matrix JSON diverged from golden file %s\n got:\n%s", path, got)
	}
}

// TestMatchMatrixTiny: degenerate catalogs must not panic and must
// report empty-but-valid matrices.
func TestMatchMatrixTiny(t *testing.T) {
	f, _, _ := matrixWorld(t)
	for _, mods := range [][]*module.Module{
		nil,
		{seqModule("solo", prefixer("X:"))},
	} {
		sets := map[string]dataexample.Set{}
		for _, m := range mods {
			set, _, err := f.gen.Generate(m)
			if err != nil {
				t.Fatal(err)
			}
			sets[m.ID] = set
		}
		mm, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyedSource(sets))
		if err != nil {
			t.Fatal(err)
		}
		if len(mm.Cells) != 0 || mm.Stats.Pairs != 0 {
			t.Errorf("tiny matrix = %+v", mm)
		}
	}
	// Duplicate module entries collapse to one.
	dup := seqModule("dup", prefixer("X:"))
	set, _, err := f.gen.Generate(dup)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := f.cmp.MatchMatrixFromKeyedSets(context.Background(),
		[]*module.Module{dup, dup}, keyedSource(map[string]dataexample.Set{"dup": set}))
	if err != nil {
		t.Fatal(err)
	}
	if mm.Stats.Modules != 1 {
		t.Errorf("dup modules = %d", mm.Stats.Modules)
	}
}

// TestMatchMatrixOneIndexSnapshot races matrix builds against the index
// Remove/Update flips that availability changes fire. Every build must
// equal the dense oracle at either the pre-flip or the post-flip index
// state: the build reads all its feasibility rows from one snapshot, so
// a flip can never land between two of its rows (run under -race; the
// Makefile race-match target does).
func TestMatchMatrixOneIndexSnapshot(t *testing.T) {
	f := newFixture(t)
	r := rand.New(rand.NewSource(17))
	mods := make([]*module.Module, 40)
	sets := map[string]dataexample.Set{}
	for i := range mods {
		mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
		set, _, err := f.gen.Generate(mods[i])
		if err != nil {
			t.Fatal(err)
		}
		sets[mods[i].ID] = set
	}
	src := keyedSource(sets)
	cmp := NewComparer(f.ont, nil)
	cmp.Index = NewCatalogIndex(f.ont, mods)
	flip := mods[len(mods)/2]
	pre := DenseMatchMatrix(cmp, mods, src, nil)
	cmp.Index.Remove(flip.ID)
	post := DenseMatchMatrix(cmp, mods, src, nil)
	cmp.Index.Update(flip)
	if reflect.DeepEqual(pre, post) {
		t.Fatalf("unindexing %s changes nothing; the test is vacuous", flip.ID)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				cmp.Index.Remove(flip.ID)
			} else {
				cmp.Index.Update(flip)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 40; i++ {
		cmp.Workers = 1 + i%2
		got, err := cmp.MatchMatrixFromKeyedSets(context.Background(), mods, src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, pre) && !reflect.DeepEqual(got, post) {
			t.Fatalf("build %d mixes two index states: %+v (pre-flip %+v, post-flip %+v)",
				i, got.Stats, pre.Stats, post.Stats)
		}
	}
}
