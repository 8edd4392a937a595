package dataexample

// KeyedSet is a Set with its canonical keys interned: the InputKey,
// OutputKey and PartitionKey of every example are computed exactly once,
// at construction, instead of being rebuilt string-by-string on every
// comparison. Aligning two sets (map∆ of §6) probes the precomputed
// input-key index, so a catalog-scale matching sweep — which visits the
// same example set once per candidate pair — pays the canonicalisation
// cost once per set, not once per pair.
//
// A KeyedSet built through KeyedInterned additionally carries columnar
// uint32 symbol IDs for every key, drawn from a shared SymbolTable, plus
// a packed bitset over the set's input-key IDs. Two sets interned in the
// same table can then align by comparing machine words: membership is a
// one-word bitset probe, output agreement a single uint32 compare.
//
// A KeyedSet is an immutable snapshot: it copies nothing, so the caller
// must not mutate the underlying examples after keying. It is safe for
// concurrent readers.
type KeyedSet struct {
	examples Set
	inKeys   []string
	outKeys  []string
	partKeys []string
	// byInput maps an input key to the index of its first occurrence,
	// mirroring Set.ByInputKey's drop-later-duplicates contract.
	byInput map[string]int

	// Interned columns (nil when built with Keyed()).
	tab     *SymbolTable
	inIDs   []uint32
	outIDs  []uint32
	partIDs []uint32
	// byInID mirrors byInput over symbol IDs; inBits is a packed bitset
	// over the input IDs present in this set, so a membership probe is a
	// single word test before the (guaranteed-hit) map lookup.
	byInID map[uint32]int32
	inBits []uint64
}

// Keyed interns the set's canonical keys. Duplicate input keys keep the
// first occurrence in the alignment index, exactly as ByInputKey does.
func (s Set) Keyed() *KeyedSet { return s.keyed(nil) }

// KeyedInterned is Keyed with the canonical keys additionally interned
// into tab as dense uint32 symbol IDs, enabling the word-compare fast
// paths against other sets interned in the same table. A nil table
// degrades to Keyed().
func (s Set) KeyedInterned(tab *SymbolTable) *KeyedSet { return s.keyed(tab) }

func (s Set) keyed(tab *SymbolTable) *KeyedSet {
	k := &KeyedSet{
		examples: s,
		inKeys:   make([]string, len(s)),
		outKeys:  make([]string, len(s)),
		partKeys: make([]string, len(s)),
		byInput:  make(map[string]int, len(s)),
	}
	for i, e := range s {
		k.inKeys[i] = e.InputKey()
		k.outKeys[i] = e.OutputKey()
		k.partKeys[i] = e.PartitionKey()
		if _, dup := k.byInput[k.inKeys[i]]; !dup {
			k.byInput[k.inKeys[i]] = i
		}
	}
	if tab == nil {
		return k
	}
	k.tab = tab
	k.inIDs = make([]uint32, len(s))
	k.outIDs = make([]uint32, len(s))
	k.partIDs = make([]uint32, len(s))
	k.byInID = make(map[uint32]int32, len(s))
	maxID := uint32(0)
	for i := range s {
		k.inIDs[i] = tab.Intern(k.inKeys[i])
		k.outIDs[i] = tab.Intern(k.outKeys[i])
		k.partIDs[i] = tab.Intern(k.partKeys[i])
		if _, dup := k.byInID[k.inIDs[i]]; !dup {
			k.byInID[k.inIDs[i]] = int32(i)
		}
		if k.inIDs[i] > maxID {
			maxID = k.inIDs[i]
		}
	}
	if len(s) > 0 {
		k.inBits = make([]uint64, int(maxID)/64+1)
		for _, id := range k.inIDs {
			k.inBits[id>>6] |= 1 << (id & 63)
		}
	}
	return k
}

// Len returns the number of examples.
func (k *KeyedSet) Len() int { return len(k.examples) }

// Examples returns the underlying set (not a copy; treat as read-only).
func (k *KeyedSet) Examples() Set { return k.examples }

// Example returns the i-th example.
func (k *KeyedSet) Example(i int) Example { return k.examples[i] }

// InputKey returns the interned canonical input key of the i-th example.
func (k *KeyedSet) InputKey(i int) string { return k.inKeys[i] }

// OutputKey returns the interned canonical output key of the i-th example.
func (k *KeyedSet) OutputKey(i int) string { return k.outKeys[i] }

// Table returns the symbol table the set's ID columns were interned in,
// or nil for a string-only KeyedSet. ID comparisons are meaningful only
// between sets sharing a table.
func (k *KeyedSet) Table() *SymbolTable { return k.tab }

// InputID returns the symbol ID of the i-th example's input key. Valid
// only on an interned set (Table() != nil).
func (k *KeyedSet) InputID(i int) uint32 { return k.inIDs[i] }

// OutputID returns the symbol ID of the i-th example's output key. Valid
// only on an interned set.
func (k *KeyedSet) OutputID(i int) uint32 { return k.outIDs[i] }

// IndexByInput returns the index of the first example whose input key
// equals key.
func (k *KeyedSet) IndexByInput(key string) (int, bool) {
	i, ok := k.byInput[key]
	return i, ok
}

// IndexByInputID is IndexByInput over symbol IDs: a packed-bitset word
// probe rejects absent IDs without touching the map, so the miss path —
// the overwhelming majority in a disjoint catalog — costs one shift, one
// load and one mask. Valid only on an interned set.
func (k *KeyedSet) IndexByInputID(id uint32) (int, bool) {
	w := int(id >> 6)
	if w >= len(k.inBits) || k.inBits[w]&(1<<(id&63)) == 0 {
		return 0, false
	}
	return int(k.byInID[id]), true
}

// UniqueInputs reports whether every example has a distinct input key —
// the precondition under which set alignment is symmetric (a bijective
// mapping aligns the same pairs in either direction).
func (k *KeyedSet) UniqueInputs() bool { return len(k.byInput) == len(k.examples) }
