package search

import (
	"context"

	"dexa/internal/dataexample"
	"dexa/internal/registry"
	"dexa/internal/store"
)

// Syncer keeps an Index consistent with the registry and the example
// store, incrementally on both of the catalog's change seams:
//
//   - availability flips (SetAvailable, RetireProvider, health
//     auto-retire, lifecycle quarantine, retirement and re-admission)
//     arrive through registry.OnAvailabilityChange, the same hook
//     serve.SyncIndex uses for the match.CatalogIndex, and translate to
//     a single Remove or Update;
//   - store writes (generation, refresh, replication) arrive through the
//     store's replication cursor; Resync re-indexes only the documents
//     whose store version moved.
//
// Lifecycle transitions that flip nothing (healthy to suspect, say)
// leave the index and its generation alone, so they expire no cursor.
// Wire it once at startup: IndexAll, HookAvailability, then Watch on a
// background goroutine.
type Syncer struct {
	Registry *registry.Registry
	Store    *store.Store
	Index    *Index
}

// stored fetches a module's stored set and version (empty when the store
// is absent or the module unannotated — the module still gets keyword
// and concept postings, just no behavior class). Both come from one
// record: an old set indexed under a new version would make Resync skip
// the document until the module's next write.
func (s *Syncer) stored(id string) (dataexample.Set, uint64) {
	if s.Store == nil {
		return nil, 0
	}
	set, _, version, _ := s.Store.GetVersioned(id)
	return set, version
}

// IndexAll builds the initial index over every available module and
// returns how many documents it indexed.
func (s *Syncer) IndexAll() int {
	n := 0
	for _, m := range s.Registry.Available() {
		set, version := s.stored(m.ID)
		s.Index.Update(m, set, version)
		n++
	}
	return n
}

// HookAvailability subscribes the index to availability flips: a module
// going unavailable leaves the results with its next query; one coming
// back is re-indexed with its stored annotation. The callback runs on
// the flipping goroutine and touches one document — cheap enough for the
// registry's no-blocking contract.
func (s *Syncer) HookAvailability() {
	s.Registry.OnAvailabilityChange(func(id string, available bool) {
		if !available {
			s.Index.Remove(id)
			return
		}
		if e, ok := s.Registry.Get(id); ok {
			set, version := s.stored(id)
			s.Index.Update(e.Module, set, version)
		}
	})
}

// Resync re-indexes every available module whose store version differs
// from the version it was indexed at, and returns how many documents
// changed. Unchanged documents are not touched — no full rebuild.
func (s *Syncer) Resync() int {
	n := 0
	for _, m := range s.Registry.Available() {
		set, version := s.stored(m.ID)
		if have, ok := s.Index.DocVersion(m.ID); ok && have == version {
			continue
		}
		s.Index.Update(m, set, version)
		n++
	}
	return n
}

// Watch follows the store's replication cursor: every committed write
// wakes it and triggers a version-diffed Resync. Run it on its own
// goroutine; it returns when ctx is done.
func (s *Syncer) Watch(ctx context.Context) {
	if s.Store == nil {
		return
	}
	for {
		cursor := s.Store.Seq()
		s.Resync()
		select {
		case <-ctx.Done():
			return
		case <-s.Store.ReplicationChanged(cursor):
		}
	}
}
