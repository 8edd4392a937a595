package dataexample

import (
	"fmt"
	"sync"
	"testing"

	"dexa/internal/typesys"
)

func TestSymbolTableDenseIDs(t *testing.T) {
	tab := NewSymbolTable()
	ids := []uint32{tab.Intern("a"), tab.Intern("b"), tab.Intern("a"), tab.Intern("c")}
	if ids[0] != 0 || ids[1] != 1 || ids[2] != 0 || ids[3] != 2 {
		t.Fatalf("ids = %v, want dense [0 1 0 2]", ids)
	}
	if tab.Len() != 3 {
		t.Errorf("Len = %d, want 3", tab.Len())
	}
	if id, ok := tab.Lookup("b"); !ok || id != 1 {
		t.Errorf("Lookup(b) = %d, %v", id, ok)
	}
	if _, ok := tab.Lookup("missing"); ok {
		t.Error("Lookup of an uninterned string should miss")
	}
	for want, s := range []string{"a", "b", "c"} {
		if got, ok := tab.SymbolString(uint32(want)); !ok || got != s {
			t.Errorf("SymbolString(%d) = %q, %v; want %q", want, got, ok, s)
		}
	}
	if _, ok := tab.SymbolString(99); ok {
		t.Error("SymbolString of an unknown ID should miss")
	}
}

// TestSymbolTableConcurrentIntern hammers one table from many goroutines
// interning overlapping string sets: every goroutine must observe the
// same ID for the same string, and the table must stay dense.
func TestSymbolTableConcurrentIntern(t *testing.T) {
	const goroutines, strs = 16, 200
	tab := NewSymbolTable()
	got := make([]map[string]uint32, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			seen := make(map[string]uint32, strs)
			for i := 0; i < strs; i++ {
				// Rotate the start so goroutines collide on fresh strings.
				s := fmt.Sprintf("sym-%03d", (i+g*13)%strs)
				seen[s] = tab.Intern(s)
			}
			got[g] = seen
		}(g)
	}
	wg.Wait()
	if tab.Len() != strs {
		t.Fatalf("Len = %d, want %d", tab.Len(), strs)
	}
	for g := range got {
		for s, id := range got[g] {
			if want, ok := tab.Lookup(s); !ok || want != id {
				t.Fatalf("goroutine %d interned %q as %d, table says %d (%v)", g, s, id, want, ok)
			}
			if back, ok := tab.SymbolString(id); !ok || back != s {
				t.Fatalf("SymbolString(%d) = %q, %v; want %q", id, back, ok, s)
			}
		}
	}
}

func internTestSet() Set {
	ex := func(in, out string) Example {
		return Example{
			Inputs:  map[string]typesys.Value{"seq": typesys.Str(in)},
			Outputs: map[string]typesys.Value{"acc": typesys.Str(out)},
		}
	}
	return Set{ex("AAA", "X:1"), ex("CCC", "X:2"), ex("AAA", "Y:9")} // duplicate input key, different outputs
}

// TestKeyedInternedColumns pins the ID columns against the string keys:
// every column entry resolves through the table to its string key, the
// duplicate-input-key tie-break matches the string index (first
// occurrence wins), and probes for foreign IDs miss via the bitset.
func TestKeyedInternedColumns(t *testing.T) {
	tab := NewSymbolTable()
	set := internTestSet()
	k := set.KeyedInterned(tab)
	if k.Table() != tab {
		t.Fatal("Table() should return the interning table")
	}
	for i := 0; i < k.Len(); i++ {
		for _, col := range []struct {
			name string
			id   uint32
			key  string
		}{
			{"input", k.InputID(i), k.InputKey(i)},
			{"output", k.OutputID(i), k.OutputKey(i)},
			{"partition", k.PartitionID(i), k.PartitionKey(i)},
		} {
			if s, ok := tab.SymbolString(col.id); !ok || s != col.key {
				t.Errorf("example %d %s ID %d resolves to %q, want %q", i, col.name, col.id, s, col.key)
			}
		}
	}
	// Duplicate input keys: ID index and string index agree on the first
	// occurrence.
	if i, ok := k.IndexByInputID(k.InputID(2)); !ok || i != 0 {
		t.Errorf("IndexByInputID(dup) = %d, %v; want 0 (first occurrence)", i, ok)
	}
	if i, ok := k.IndexByInput(k.InputKey(2)); !ok || i != 0 {
		t.Errorf("IndexByInput(dup) = %d, %v; want 0", i, ok)
	}
	// An ID interned after the set was built is not a member: the bitset
	// probe must reject it, including IDs past the bitset's length.
	foreign := tab.Intern("some-later-symbol")
	if _, ok := k.IndexByInputID(foreign); ok {
		t.Error("IndexByInputID(foreign) should miss")
	}
	if _, ok := k.IndexByInputID(foreign + 64); ok {
		t.Error("IndexByInputID past the bitset should miss")
	}
	if k.UniqueInputs() {
		t.Error("UniqueInputs should be false with a duplicate input key")
	}
}

func TestKeyedInternedEmptySet(t *testing.T) {
	tab := NewSymbolTable()
	k := Set(nil).KeyedInterned(tab)
	if k.Len() != 0 {
		t.Fatalf("Len = %d", k.Len())
	}
	if _, ok := k.IndexByInputID(0); ok {
		t.Error("empty set should miss every ID")
	}
	if !k.UniqueInputs() {
		t.Error("empty set has vacuously unique inputs")
	}
	// A nil table degrades to the string-only form.
	if plain := internTestSet().KeyedInterned(nil); plain.Table() != nil {
		t.Error("nil-table interning should produce a string-only KeyedSet")
	}
}

// SymbolString returns the string a symbol ID was assigned to.
func (t *SymbolTable) SymbolString(id uint32) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(id) >= len(t.strs) {
		return "", false
	}
	return t.strs[id], true
}
