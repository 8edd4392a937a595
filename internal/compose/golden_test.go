package compose

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/simulation"
	"dexa/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.sha256 from the current planner")

// storedCatalog is the full simulated universe with every module's
// generated example set written to a memory-only store, so each set is
// keyed and interned exactly as the serving layer holds it.
type storedCatalog struct {
	u  *simulation.Universe
	st *store.Store
}

var (
	catalogOnce sync.Once
	catalog     *storedCatalog
)

func sharedCatalog(t testing.TB) *storedCatalog {
	t.Helper()
	catalogOnce.Do(func() {
		u := simulation.NewUniverse()
		st, err := store.Open("", store.Options{})
		if err != nil {
			panic(err)
		}
		for _, m := range u.Registry.Modules() {
			set, _, err := u.Gen.Generate(m)
			if err != nil || len(set) == 0 {
				continue
			}
			if _, _, err := st.Put(m.ID, set); err != nil {
				panic(err)
			}
		}
		catalog = &storedCatalog{u: u, st: st}
	})
	return catalog
}

// examplesPlanner resolves raw sets only, so the planner keys them itself.
func (c *storedCatalog) examplesPlanner() *Planner {
	return &Planner{Ont: c.u.Ont, Reg: c.u.Registry, Examples: func(id string) (dataexample.Set, bool) {
		set, _, ok := c.st.Get(id)
		return set, ok
	}}
}

// keyedPlanner resolves the sets the store interned at write time.
func (c *storedCatalog) keyedPlanner() *Planner {
	return &Planner{Ont: c.u.Ont, Reg: c.u.Registry, Keyed: func(id string) (*dataexample.KeyedSet, bool) {
		set, _, ok := c.st.GetKeyed(id)
		return set, ok
	}}
}

// goldenCases lists every primary signature pair of the catalog, each
// anchored on the first module (by ID) carrying it, crossed with the four
// constraint shapes and two depths.
func goldenCases(c *storedCatalog) []Constraints {
	type pair struct{ in, out string }
	anchor := map[pair]string{}
	for _, m := range c.u.Registry.Available() {
		if !m.Bound() || len(m.Inputs) == 0 || len(m.Outputs) == 0 {
			continue
		}
		p := pair{primaryInput(m).Semantic, primaryOutput(m).Semantic}
		if p.in == "" || p.out == "" {
			continue
		}
		if _, ok := anchor[p]; !ok {
			anchor[p] = m.ID
		}
	}
	pairs := make([]pair, 0, len(anchor))
	for p := range anchor {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].in != pairs[j].in {
			return pairs[i].in < pairs[j].in
		}
		return pairs[i].out < pairs[j].out
	})
	var cases []Constraints
	for _, p := range pairs {
		for _, depth := range []int{2, 0} {
			base := Constraints{In: p.in, Out: p.out, MaxDepth: depth}
			like, use, avoid := base, base, base
			like.Like = anchor[p]
			use.MustUse = []string{p.in}
			avoid.MustAvoid = []string{simulation.CRNASequence}
			cases = append(cases, base, like, use, avoid)
		}
	}
	return cases
}

// writePlans renders one request's plans — JSON plus the workflow in its
// Save wire format — into h.
func writePlans(t testing.TB, h io.Writer, cs Constraints, plans []Plan, err error) {
	t.Helper()
	fmt.Fprintf(h, "case in=%s out=%s depth=%d like=%s use=%v avoid=%v\n",
		cs.In, cs.Out, cs.MaxDepth, cs.Like, cs.MustUse, cs.MustAvoid)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	for _, plan := range plans {
		data, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
		h.Write([]byte{'\n'})
		if plan.Workflow != nil {
			if err := plan.Workflow.Save(h); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPlanGoldenDigest pins the planner's output over the whole catalog:
// the digest in testdata/plans.sha256 was recorded from the planner that
// aligned raw sets through match.CompareExampleSets, before it moved onto
// keyed sets, so any change in plan content or order fails here. Both
// resolvers — raw sets keyed per Plan call, and the store's interned
// sets — must reproduce it, and must agree request by request.
func TestPlanGoldenDigest(t *testing.T) {
	c := sharedCatalog(t)
	cases := goldenCases(c)
	ep, kp := c.examplesPlanner(), c.keyedPlanner()
	de, dk := sha256.New(), sha256.New()
	for _, cs := range cases {
		he, hk := sha256.New(), sha256.New()
		pe, errE := ep.Plan(cs)
		writePlans(t, io.MultiWriter(he, de), cs, pe, errE)
		pk, errK := kp.Plan(cs)
		writePlans(t, io.MultiWriter(hk, dk), cs, pk, errK)
		if !bytes.Equal(he.Sum(nil), hk.Sum(nil)) {
			t.Errorf("in=%s out=%s depth=%d like=%q use=%v avoid=%v: keyed plans differ from examples plans",
				cs.In, cs.Out, cs.MaxDepth, cs.Like, cs.MustUse, cs.MustAvoid)
		}
	}
	got := hex.EncodeToString(de.Sum(nil))
	path := filepath.Join("testdata", "plans.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	if got != want {
		t.Errorf("examples planner: digest over %d requests = %s, want %s", len(cases), got, want)
	}
	if got := hex.EncodeToString(dk.Sum(nil)); got != want {
		t.Errorf("keyed planner: digest over %d requests = %s, want %s", len(cases), got, want)
	}
}

// TestPlanAllocBudget bounds the allocations of one fixed Plan call over
// store-interned sets, shaped like the e2e plan workload's requests
// (depth 2, three plans), over a view built for the call. The budget is
// the measured count (865) with under 10% headroom; 852 while a view
// built for one call kept no memo, and the planner that aligned raw sets
// through match.CompareExampleSets allocated 2,662 on the same call.
func TestPlanAllocBudget(t *testing.T) {
	c := sharedCatalog(t)
	p := c.keyedPlanner()
	cs := Constraints{In: simulation.CDNASequence, Out: simulation.CAccList, MaxDepth: 2, MaxPlans: 3}
	const budget = 937
	if got := testing.AllocsPerRun(10, func() { _, _ = p.Plan(cs) }); got > budget {
		t.Errorf("Plan(%s -> %s, depth 2) allocates %.0f, budget %d", cs.In, cs.Out, got, budget)
	}
}

// TestPlanWarmViewAllocBudget bounds the same call as
// TestPlanAllocBudget planned over a warm View — the serving path, where
// the view is built once per catalog version, its groups are already
// partitioned, and its memo holds the call's chains and verified plans.
// The budget is the measured count (8), with no room to spare; before
// the memo, when every call searched chains and verified each plan, the
// same call allocated 402.
func TestPlanWarmViewAllocBudget(t *testing.T) {
	c := sharedCatalog(t)
	p := c.keyedPlanner()
	p.View = NewView(p.Ont, p.Reg, p.Keyed)
	cs := Constraints{In: simulation.CDNASequence, Out: simulation.CAccList, MaxDepth: 2, MaxPlans: 3}
	const budget = 8
	if _, err := p.Plan(cs); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(10, func() { _, _ = p.Plan(cs) }); got > budget {
		t.Errorf("warm-view Plan(%s -> %s, depth 2) allocates %.0f, budget %d", cs.In, cs.Out, got, budget)
	}
}

// TestPlanViewMatchesPerCall: every golden request planned twice over
// one shared View — concurrently, so the lazy partition and the memo race
// themselves, and the second answer comes from the memo — renders
// byte-identically to the same request planned over a fresh per-call
// view both times.
func TestPlanViewMatchesPerCall(t *testing.T) {
	c := sharedCatalog(t)
	cases := goldenCases(c)
	fresh := c.keyedPlanner()
	shared := c.keyedPlanner()
	shared.View = NewView(shared.Ont, shared.Reg, shared.Keyed)
	want := make([][]byte, len(cases))
	for i, cs := range cases {
		plans, err := fresh.Plan(cs)
		var buf bytes.Buffer
		writePlans(t, &buf, cs, plans, err)
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cases); i += 2 {
				for _, pass := range []string{"first", "memoised"} {
					plans, err := shared.Plan(cases[i])
					var buf bytes.Buffer
					writePlans(t, &buf, cases[i], plans, err)
					if !bytes.Equal(buf.Bytes(), want[i]) {
						t.Errorf("case %d (%+v): %s warm-view plans differ from per-call plans", i, cases[i], pass)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkPlanMix plans the e2e plan workload's request shapes (depth 2,
// three plans; plain, like= and use=) for every primary signature pair,
// over store-interned sets: per-call builds a view on every Plan call
// (the CLI's path), view plans over one warm view (the server's path).
func BenchmarkPlanMix(b *testing.B) {
	c := sharedCatalog(b)
	var cases []Constraints
	for _, cs := range goldenCases(c) {
		if cs.MaxDepth == 2 && len(cs.MustAvoid) == 0 {
			cs.MaxPlans = 3
			cases = append(cases, cs)
		}
	}
	run := func(b *testing.B, p *Planner) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Plan(cases[i%len(cases)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("per-call", func(b *testing.B) { run(b, c.keyedPlanner()) })
	b.Run("view", func(b *testing.B) {
		p := c.keyedPlanner()
		p.View = NewView(p.Ont, p.Reg, p.Keyed)
		for _, cs := range cases {
			_, _ = p.Plan(cs)
		}
		b.ResetTimer()
		run(b, p)
	})
}

// TestLikeScoresMemoisedPerLikeSet: a view keeps each class's like=
// score per Like set. Scoring a group twice against one set reads the
// kept scores, and a second set of the same module (a write landing
// while the view is kept) is scored afresh; every score equals a direct
// likeAgreement, and a child view (an avoid= request's) keeps its scores
// in its own memo, not its parent's.
func TestLikeScoresMemoisedPerLikeSet(t *testing.T) {
	c := sharedCatalog(t)
	p := c.keyedPlanner()
	v := NewView(p.Ont, p.Reg, p.Keyed)
	var sc match.CompareScratch
	var g *sigGroup
	var like *module.Module
	var full *dataexample.KeyedSet
	for _, cand := range v.groups {
		if len(v.classesOf(cand, &sc)) == 0 {
			continue
		}
		for _, m := range cand.members {
			if set := v.set(m.ID); set != nil && set.Len() > 1 {
				g, like, full = cand, m, set
			}
		}
		if g != nil {
			break
		}
	}
	if g == nil {
		t.Fatal("no group member with two examples")
	}
	shrunk := full.Examples()[:1].Keyed()
	check := func(w *View, set *dataexample.KeyedSet, wantKept int) {
		t.Helper()
		got := w.liked(g.classes, like, set, &sc)
		if got[0].likeScore == 0 {
			t.Fatalf("%s agrees with no class of its own group; the test is vacuous", like.ID)
		}
		for _, bc := range got {
			if want := w.likeAgreement(like, set, bc, &sc); bc.likeScore != want {
				t.Errorf("class %d scored %v, want %v", bc.id, bc.likeScore, want)
			}
		}
		if kept := len(w.memo.likes); kept != wantKept {
			t.Errorf("memo keeps %d scores, want %d", kept, wantKept)
		}
	}
	n := len(g.classes)
	check(v, full, n)
	check(v, full, n)
	check(v, shrunk, 2*n)
	child := &View{ont: v.ont, keyed: v.keyed, groups: v.groups, classIDs: v.classIDs, memo: newPlanMemo()}
	check(child, full.Examples().Keyed(), n)
	if kept := len(v.memo.likes); kept != 2*n {
		t.Errorf("parent memo keeps %d scores after a child's scoring, want %d", kept, 2*n)
	}
}
