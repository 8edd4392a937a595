package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
)

// TestGetKeyedInternedAndStable pins the keyed read path's pointer
// contract: one *KeyedSet per stored content, interned in the store's
// shared symbol table, with a content-addressed no-op Put keeping the
// pointer and a real change installing a fresh one. Reopening the store
// must hydrate keyed sets with identical examples through the streaming
// snapshot loader.
func TestGetKeyedInternedAndStable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(t, "x", 3)
	if _, _, err := s.Put("m1", set); err != nil {
		t.Fatal(err)
	}
	k1, hash1, ok := s.GetKeyed("m1")
	if !ok || k1 == nil || k1.Len() != 3 {
		t.Fatalf("GetKeyed = %v, %q, %v", k1, hash1, ok)
	}
	if k1.Table() != s.symtab {
		t.Error("keyed set not interned in the store's shared table")
	}
	if got, gotHash, _ := s.Get("m1"); gotHash != hash1 || !reflect.DeepEqual(got, k1.Examples()) {
		t.Error("GetKeyed examples diverge from Get")
	}
	if k2, _, _ := s.GetKeyed("m1"); k2 != k1 {
		t.Error("repeated GetKeyed returned a different pointer")
	}
	// Content-addressed no-op: same content, freshly built, keeps the
	// pointer (the incremental matrix relies on this to skip recomputes).
	if _, changed, err := s.Put("m1", testSet(t, "x", 3)); err != nil || changed {
		t.Fatalf("identical Put: changed=%v err=%v", changed, err)
	}
	if k3, _, _ := s.GetKeyed("m1"); k3 != k1 {
		t.Error("no-op Put replaced the keyed pointer")
	}
	// A real change installs a fresh pointer.
	if _, changed, err := s.Put("m1", testSet(t, "y", 3)); err != nil || !changed {
		t.Fatalf("changed Put: changed=%v err=%v", changed, err)
	}
	k4, hash4, _ := s.GetKeyed("m1")
	if k4 == k1 || hash4 == hash1 {
		t.Error("changed Put kept the old keyed pointer or hash")
	}
	if st := s.Stats(); st.Symbols == 0 {
		t.Errorf("Stats.Symbols = %d, want > 0", st.Symbols)
	}
	// Force a snapshot so reopening hydrates through the streaming
	// loader, then verify the rebuilt keyed set.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	k5, hash5, ok := s2.GetKeyed("m1")
	if !ok || hash5 != hash4 {
		t.Fatalf("after reopen: GetKeyed = %q, %v; want %q", hash5, ok, hash4)
	}
	if !reflect.DeepEqual(k5.Examples(), k4.Examples()) {
		t.Error("hydrated keyed examples diverge from the written set")
	}
	if k5.Table() != s2.symtab || s2.Stats().Symbols == 0 {
		t.Error("hydration did not intern into the reopened store's table")
	}
	for i := 0; i < k5.Len(); i++ {
		if id, ok := s2.symtab.Lookup(k5.InputKey(i)); !ok || id != k5.InputID(i) {
			t.Errorf("example %d: input ID %d does not resolve through the table", i, k5.InputID(i))
		}
	}
}

// TestStoreParallelPut hammers the write path from many goroutines —
// interning runs outside the log mutex, so writers intern symbols into
// the shared table genuinely in parallel. Afterwards every stored keyed
// set must resolve consistently through that table. Run under -race via
// the race-columnar target.
func TestStoreParallelPut(t *testing.T) {
	s, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, perWriter, distinct = 8, 24, 6
	sets := make([][]dataexample.Set, writers)
	for w := range sets {
		sets[w] = make([]dataexample.Set, distinct)
		for i := range sets[w] {
			sets[w][i] = testSet(t, fmt.Sprintf("w%d-%d", w, i), 2)
		}
	}
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("mod-%d-%d", w, i%distinct)
				if _, _, err := s.Put(id, sets[w][i%distinct]); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tab := s.symtab
	for w := 0; w < writers; w++ {
		for i := 0; i < distinct; i++ {
			id := fmt.Sprintf("mod-%d-%d", w, i)
			k, _, ok := s.GetKeyed(id)
			if !ok {
				t.Fatalf("%s missing after parallel puts", id)
			}
			if k.Table() != tab {
				t.Fatalf("%s keyed outside the shared table", id)
			}
			for e := 0; e < k.Len(); e++ {
				if symID, ok := tab.Lookup(k.InputKey(e)); !ok || symID != k.InputID(e) {
					t.Fatalf("%s example %d: ID %d inconsistent with table", id, e, k.InputID(e))
				}
			}
		}
	}
}
