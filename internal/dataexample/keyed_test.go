package dataexample

import (
	"testing"

	"dexa/internal/typesys"
)

func keyedExample(in, out, part string) Example {
	return Example{
		Inputs:          map[string]typesys.Value{"seq": typesys.Str(in)},
		Outputs:         map[string]typesys.Value{"acc": typesys.Str(out)},
		InputPartitions: map[string]string{"seq": part},
	}
}

// TestKeyedSetInternsKeys: every interned key must equal the one the
// Example methods derive on the fly, and the alignment index must keep
// the first occurrence of a duplicate input key — the same contract as
// Set.ByInputKey.
func TestKeyedSetInternsKeys(t *testing.T) {
	s := Set{
		keyedExample("ACGT", "X:ACGT", "DNA"),
		keyedExample("MKTW", "X:MKTW", "Prot"),
		keyedExample("ACGT", "Y:ACGT", "DNA"), // duplicate input, different output
	}
	k := s.Keyed()
	if k.Len() != 3 {
		t.Fatalf("len = %d", k.Len())
	}
	for i, e := range s {
		if k.InputKey(i) != e.InputKey() {
			t.Errorf("input key %d: %q != %q", i, k.InputKey(i), e.InputKey())
		}
		if k.OutputKey(i) != e.OutputKey() {
			t.Errorf("output key %d: %q != %q", i, k.OutputKey(i), e.OutputKey())
		}
		if k.PartitionKey(i) != e.PartitionKey() {
			t.Errorf("partition key %d: %q != %q", i, k.PartitionKey(i), e.PartitionKey())
		}
		if k.Example(i).InputKey() != e.InputKey() {
			t.Errorf("example %d mismatch", i)
		}
	}
	if len(k.Examples()) != 3 {
		t.Error("Examples() must expose the underlying set")
	}

	// First-occurrence-wins on the duplicate input key.
	i, ok := k.IndexByInput(s[0].InputKey())
	if !ok || i != 0 {
		t.Errorf("duplicate input key resolved to %d, want 0", i)
	}
	if _, ok := k.IndexByInput("no-such-key"); ok {
		t.Error("unknown key must miss")
	}
	if k.UniqueInputs() {
		t.Error("set with duplicate input keys reported unique")
	}
	if !(Set{s[0], s[1]}).Keyed().UniqueInputs() {
		t.Error("distinct input keys reported non-unique")
	}
}

// PartitionKey returns the interned partition key of the i-th example.
func (k *KeyedSet) PartitionKey(i int) string { return k.partKeys[i] }

// PartitionID returns the symbol ID of the i-th example's partition key.
// Valid only on an interned set.
func (k *KeyedSet) PartitionID(i int) uint32 { return k.partIDs[i] }
