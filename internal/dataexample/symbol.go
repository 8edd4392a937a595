package dataexample

import "sync"

// SymbolTable interns canonical example keys (input, output, partition)
// to dense uint32 symbol IDs. Two keys interned in the same table are
// equal exactly when their IDs are equal, so the matching hot loops —
// which compare the same canonical strings millions of times per
// catalog sweep — compare machine words instead.
//
// IDs are dense: the k-th distinct string interned gets ID k-1, which is
// what lets KeyedSet pack per-set membership into a small bitset indexed
// by ID.
//
// Concurrency: Intern takes a read lock on the fast path (string already
// interned) and upgrades to the write lock only for a first occurrence,
// so parallel store writes interning mostly-shared catalogs contend only
// on genuinely new symbols. IDs, once assigned, never change.
type SymbolTable struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewSymbolTable builds an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{ids: make(map[string]uint32)}
}

// Intern returns the symbol ID for s, assigning the next dense ID on
// first sight.
func (t *SymbolTable) Intern(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id = uint32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// Lookup returns the ID of an already-interned string without interning.
func (t *SymbolTable) Lookup(s string) (uint32, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[s]
	return id, ok
}

// Len returns the number of distinct symbols interned.
func (t *SymbolTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.strs)
}
