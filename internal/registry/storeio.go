package registry

import "dexa/internal/dataexample"

// ExampleStore is the slice of the persistent example store the registry
// hydrates its annotations from. *store.Store satisfies it. The interface
// lives here (rather than importing internal/store) so the registry stays
// a leaf package: anything that can get and enumerate example sets can
// back it.
type ExampleStore interface {
	Get(id string) (dataexample.Set, string, bool)
	IDs() []string
}

// LoadExamplesFrom pulls stored example sets into the matching registry
// entries and reports how many entries were hydrated. Stored modules the
// registry does not know are left alone — the store may hold annotations
// for a larger catalog than this process serves.
func (r *Registry) LoadExamplesFrom(st ExampleStore) (loaded int) {
	for _, id := range st.IDs() {
		set, _, ok := st.Get(id)
		if !ok {
			continue // deleted between IDs and Get
		}
		r.mu.Lock()
		if e, known := r.entries[id]; known {
			e.Examples = set
			loaded++
		}
		r.mu.Unlock()
	}
	return loaded
}
