package registry

import (
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/store"
)

func TestSaveLoadExamplesStore(t *testing.T) {
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if _, _, err := st.Put(id, persistExamples(id)); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh registry hydrates from the store; store-only modules the
	// catalog doesn't know are ignored.
	if _, _, err := st.Put("foreign", persistExamples("f")); err != nil {
		t.Fatal(err)
	}
	fresh := New()
	fresh.MustRegister(persistModule("a"))
	fresh.MustRegister(persistModule("b"))
	if loaded := fresh.LoadExamplesFrom(st); loaded != 2 {
		t.Errorf("loaded %d entries, want 2", loaded)
	}
	set, ok := fresh.Examples("a")
	if !ok || len(set) != 1 {
		t.Fatalf("a not hydrated: %d examples, %v", len(set), ok)
	}
	var zero dataexample.Set
	if got, _ := fresh.Examples("bare"); len(got) != len(zero) {
		t.Errorf("bare grew examples from nowhere: %d", len(got))
	}
}
