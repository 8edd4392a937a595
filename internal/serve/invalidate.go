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
// That generation is what keys the serving layer's /matches and
// /substitutes caches, so wiring this is what makes availability changes
// invalidate them: without it, an auto-retired module would keep ranking
// in cached substitute responses until some other catalog change happened
// to bump the state key. Call it once at startup, after the index is
// built and before a lifecycle manager restores its states.
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
