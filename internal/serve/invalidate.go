package serve

import (
	"dexa/internal/match"
	"dexa/internal/registry"
)

// SyncIndex wires registry availability changes into the catalog index:
// a module going unavailable (manual retirement, RetireProvider, the
// health tracker's auto-retire, lifecycle quarantine or retirement) is
// removed from the index, and a module coming back (revival, lifecycle
// re-admission) is re-indexed — each flip bumps the index generation
// exactly once. It is the index's only availability input.
//
// That generation is part of the key of every catalog-derived answer the
// serving layer memoises: the /matches state key and body, the /catalog
// body and the /compose view (all through catalogVersion), and each
// target's /substitutes ranking (subsKey). The registry generation in
// the same keys moves on the flip itself; the index generation moves once
// the index has caught up with it, so a memo filled in between is
// rebuilt. Call it once at startup, after the index is built and before
// a lifecycle manager restores its states.
func SyncIndex(reg *registry.Registry, ix *match.CatalogIndex) {
	reg.OnAvailabilityChange(func(id string, available bool) {
		if !available {
			ix.Remove(id)
			return
		}
		if e, ok := reg.Get(id); ok {
			ix.Update(e.Module)
		}
	})
}
