package dexa

import (
	"context"
	"sort"
	"strings"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/simulation"
	"dexa/internal/store"
)

// TestAuditServedEquivalents audits every equivalent cell of the served
// match matrix against the simulation's ground truth: two modules behave
// the same only if their sorted Behavior.Classes() are equal. The
// catalog is annotated as dexa-serve annotates it (the universe's
// generator, one realization per partition: 523 examples), and the
// matrix is built in exact and in relaxed mode.
//
// Relaxed mode also lets a candidate whose input concept subsumes the
// target's stand in for it. A false relaxed cell that exact mode does
// not share rests on that rule alone; the 110 such cells were checked by
// hand. Each joins a specific module with a general one (the length
// filters with the generic collection filter, the sequence extractors
// with the generic record parsers, the accession mappers with the
// generic mappers), which agree on the specific module's inputs; the
// ground truth tells them apart only because the general module has
// more classes. The 14 false cells both modes share are the matcher's
// errors: the two pairwise aligners, which a second drawn value would
// separate, and the AT and GC filters, which no ratio the pool seeds
// separates.
//
// The counts are pinned as upper bounds, so a change that raises one
// fails, and a change that lowers one lowers its bound here. The GO-term
// family is a coverage gap, listed apart from the matcher's errors: the
// annotators deepAnnotate and mineConcepts differ from extractGOTerms
// only on a document without a GO term, and the pool holds no such
// document, so no example can separate them.
func TestAuditServedEquivalents(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("annotates and matches the full catalog")
	}
	u := simulation.NewUniverse()
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	source := store.NewSource(st, u.Gen)
	mods := u.Registry.Modules()
	examples := 0
	for _, m := range mods {
		set, _, err := source.Generate(m)
		if err != nil {
			t.Fatalf("generating %s: %v", m.ID, err)
		}
		examples += len(set)
	}
	if examples != 523 {
		t.Errorf("the served catalog holds %d examples, want 523", examples)
	}
	truth := make(map[string]string, len(u.Catalog.Entries))
	for _, e := range u.Catalog.Entries {
		classes := append([]string(nil), e.Behavior.Classes()...)
		sort.Strings(classes)
		truth[e.Module.ID] = strings.Join(classes, ",")
	}
	goTermGap := func(a, b string) bool {
		annotator := func(id string) bool { return id == "deepAnnotate" || id == "mineConcepts" }
		extractor := func(id string) bool { return strings.HasPrefix(id, "extractGOTerms") }
		return annotator(a) && extractor(b) || annotator(b) && extractor(a)
	}
	keyed := func(id string) (*dataexample.KeyedSet, bool) {
		k, _, ok := st.GetKeyed(id)
		return k, ok
	}

	matrix := func(mode match.Mode) *match.MatchMatrix {
		cmp := match.NewComparer(u.Ont, source)
		cmp.Mode = mode
		cmp.Index = match.NewCatalogIndex(u.Ont, mods)
		mx, err := cmp.MatchMatrixFromKeyedSets(context.Background(), mods, keyed)
		if err != nil {
			t.Fatal(err)
		}
		return mx
	}
	exact := matrix(match.ModeExact)
	exactEquivalent := make(map[[2]string]bool)
	for _, cell := range exact.Cells {
		if cell.Verdict == match.Equivalent.String() {
			exactEquivalent[[2]string{cell.Target, cell.Candidate}] = true
		}
	}

	for _, c := range []struct {
		mx *match.MatchMatrix
		// Upper bounds on the false equivalent cells outside the GO-term
		// family, on those of them that only relaxed mode's subsumption
		// rule admits (no exact-mode equivalent), on the GO-term family's
		// cells, and on the equivalent cells that rest on one compared
		// example.
		falseCells, subsumptionOnly, goTermCells, oneExample int
	}{
		{exact, 14, 0, 8, 326},
		{matrix(match.ModeRelaxed), 124, 110, 8, 460},
	} {
		t.Run(c.mx.Mode, func(t *testing.T) {
			var equivalent, falseCells, subsumptionOnly, goTermCells, oneExample int
			for _, cell := range c.mx.Cells {
				if cell.Verdict != match.Equivalent.String() {
					continue
				}
				equivalent++
				if cell.Compared == 1 {
					oneExample++
				}
				if truth[cell.Target] == truth[cell.Candidate] {
					continue
				}
				why := "false equivalent"
				switch {
				case goTermGap(cell.Target, cell.Candidate):
					goTermCells++
					why = "coverage gap"
				case !exactEquivalent[[2]string{cell.Target, cell.Candidate}]:
					falseCells++
					subsumptionOnly++
					why = "false equivalent by subsumption only"
				default:
					falseCells++
				}
				t.Logf("%s: %s ~ %s on %d example(s) (%s vs %s)", why, cell.Target, cell.Candidate, cell.Compared, truth[cell.Target], truth[cell.Candidate])
			}
			t.Logf("%d equivalent cells: %d false (%d by subsumption only), %d in the GO-term gap, %d on one example",
				equivalent, falseCells, subsumptionOnly, goTermCells, oneExample)
			for _, b := range []struct {
				what     string
				got, max int
			}{
				{"false equivalent cells", falseCells, c.falseCells},
				{"of them by subsumption only", subsumptionOnly, c.subsumptionOnly},
				{"GO-term gap cells", goTermCells, c.goTermCells},
				{"equivalent cells on one example", oneExample, c.oneExample},
			} {
				if b.got > b.max {
					t.Errorf("%d %s, bound %d", b.got, b.what, b.max)
				}
			}
		})
	}
}
