package match

import (
	"context"
	"strings"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// mapStore is an in-memory StoredExamples: module ID -> persisted set.
type mapStore map[string]dataexample.Set

func (s mapStore) Get(id string) (dataexample.Set, string, bool) {
	set, ok := s[id]
	return set, "", ok
}

func TestFindSubstitutesStored(t *testing.T) {
	f := newFixture(t)
	target := seqModule("decayed", prefixer("X:"))
	same := seqModule("same", prefixer("X:"))
	other := seqModule("other", prefixer("Y:"))

	// Annotate the target while it is still alive, persist the set, then
	// lose the executor — the store is all that remains of its behaviour.
	set, _, err := f.gen.Generate(target)
	if err != nil {
		t.Fatal(err)
	}
	st := mapStore{"decayed": set}
	target.Bind(nil)

	subs, err := f.cmp.FindSubstitutesStoredContext(context.Background(), st, target, []*module.Module{same, other})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs.Ranked) == 0 {
		t.Fatal("no substitutes ranked")
	}
	best := subs.Ranked[0]
	if best.Module.ID != "same" || best.Result.Verdict != Equivalent {
		t.Errorf("best substitute = %s (%s), want equivalent same", best.Module.ID, best.Result.Verdict)
	}
	for _, r := range subs.Ranked {
		if r.Module.ID == "other" && r.Result.Verdict == Equivalent {
			t.Error("differently-behaving candidate ranked equivalent")
		}
	}
}

func TestFindSubstitutesStoredErrors(t *testing.T) {
	f := newFixture(t)
	target := seqModule("ghost", prefixer("X:"))
	cand := seqModule("cand", prefixer("X:"))

	// Nothing stored for the target: the search cannot run.
	_, err := f.cmp.FindSubstitutesStoredContext(context.Background(), mapStore{}, target, []*module.Module{cand})
	if err == nil || !strings.Contains(err.Error(), "no stored examples") {
		t.Fatalf("err = %v, want no-stored-examples failure", err)
	}
	if _, err := f.cmp.FindSubstitutesStoredContext(context.Background(), mapStore{}, nil, nil); err == nil {
		t.Fatal("nil target must error")
	}
}
