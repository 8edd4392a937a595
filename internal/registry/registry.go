// Package registry implements the scientific-module registry at the heart
// of the system architecture (Figure 3): it stores module signatures with
// their parameter annotations, the data examples generated to characterise
// them, and availability status (third-party providers may stop supplying
// a module at any time — the workflow-decay problem of §6).
//
// The registry is safe for concurrent use and persists to JSON. Executors
// are process-local and never serialised; after Load, callers rebind
// executors through a Binder.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dexa/internal/dataexample"
	"dexa/internal/longpoll"
	"dexa/internal/module"
)

// Entry is one registered module with its annotation artefacts.
type Entry struct {
	Module   *module.Module
	Examples dataexample.Set
	// Available reports whether the module can currently be invoked.
	// Unavailable modules keep their signature and examples — that is what
	// makes data-example-based substitution possible.
	Available bool
	// Health accumulates invocation outcomes reported by the resilient
	// execution layer; consecutive transient failures can auto-retire the
	// module (see Registry.SetFailureThreshold).
	Health Health
}

// Registry stores module entries keyed by module ID.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	// ordered holds the same entries sorted by module ID, maintained by
	// Register, so every ID-ordered listing is a walk instead of a
	// collect-and-sort.
	ordered          []*Entry
	failureThreshold int
	availWatchers    []func(id string, available bool)
	// gen counts catalog changes: one per Register and one per
	// availability flip, bumped under mu with the change itself.
	gen   atomic.Uint64
	nonce string
}

// Generation returns a counter that moves on every Register and on every
// availability flip (SetAvailable, RetireProvider, auto-retire, revive),
// once per module. It is bumped under the registry lock with the change
// itself, so a caller that reads the generation and then the catalog
// sees at least the changes counted: a cache keyed on the generation
// read before its build never serves a catalog older than its key.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Nonce is random per Registry: a generation names a state of this
// registry only, so a validator built from it carries the nonce too.
func (r *Registry) Nonce() string { return r.nonce }

// OnAvailabilityChange registers a callback invoked whenever a module's
// availability actually flips — by SetAvailable, RetireProvider, or the
// auto-retire/revive paths in RecordFailure/RecordSuccess. Every flipper,
// the lifecycle manager included, goes through those, so this hook is
// the one route from a flip to the derived views: serve.SyncIndex keeps
// the match.CatalogIndex (whose generation keys the cached /matches and
// /substitutes bodies) in sync, and search.Syncer.HookAvailability the
// search index. Callbacks run outside the registry lock (they may call
// back into the registry) and synchronously on the goroutine that caused
// the flip, so a flip's caller sees the views updated when it returns;
// they must be cheap and must not block.
func (r *Registry) OnAvailabilityChange(fn func(id string, available bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.availWatchers = append(r.availWatchers, fn)
}

// notifyAvailability invokes the registered watchers. Callers must NOT
// hold r.mu: a watcher reading back through Get would deadlock.
func (r *Registry) notifyAvailability(id string, available bool) {
	r.mu.RLock()
	watchers := r.availWatchers
	r.mu.RUnlock()
	for _, fn := range watchers {
		fn(id, available)
	}
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*Entry), nonce: longpoll.Nonce()}
}

// Register validates and adds a module, initially available. It rejects
// duplicates.
func (r *Registry) Register(m *module.Module) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[m.ID]; dup {
		return fmt.Errorf("registry: duplicate module %q", m.ID)
	}
	e := &Entry{Module: m, Available: true}
	r.entries[m.ID] = e
	r.gen.Add(1)
	i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].Module.ID > m.ID })
	r.ordered = append(r.ordered, nil)
	copy(r.ordered[i+1:], r.ordered[i:])
	r.ordered[i] = e
	return nil
}

// MustRegister is Register but panics on error.
func (r *Registry) MustRegister(m *module.Module) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Get returns the entry for the given module ID.
func (r *Registry) Get(id string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	return e, ok
}

// Lookup returns the module and whether it is available, read together
// under the registry lock. Prefer it to reading Get's Entry.Available,
// which a concurrent flip writes.
func (r *Registry) Lookup(id string) (m *module.Module, available, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false, false
	}
	return e.Module, e.Available, true
}

// Len returns the number of registered modules.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// IDs returns all module IDs, sorted.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, len(r.ordered))
	for i, e := range r.ordered {
		ids[i] = e.Module.ID
	}
	return ids
}

// Modules returns all registered modules in ID order.
func (r *Registry) Modules() []*module.Module {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*module.Module, len(r.ordered))
	for i, e := range r.ordered {
		out[i] = e.Module
	}
	return out
}

// Available returns the modules currently available for invocation, in ID
// order.
func (r *Registry) Available() []*module.Module { return r.filter(true) }

// UnavailableIDs returns the IDs of modules whose providers stopped
// supplying them, sorted.
func (r *Registry) UnavailableIDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var ids []string
	for _, e := range r.ordered {
		if !e.Available {
			ids = append(ids, e.Module.ID)
		}
	}
	return ids
}

func (r *Registry) filter(avail bool) []*module.Module {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*module.Module
	for _, e := range r.ordered {
		if e.Available == avail {
			out = append(out, e.Module)
		}
	}
	return out
}

// SetExamples stores the data examples annotating the module.
func (r *Registry) SetExamples(id string, set dataexample.Set) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return fmt.Errorf("registry: unknown module %q", id)
	}
	e.Examples = set
	return nil
}

// Examples returns the stored data examples for the module.
func (r *Registry) Examples(id string) (dataexample.Set, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, false
	}
	return e.Examples, true
}

// SetAvailable flips the availability of one module.
func (r *Registry) SetAvailable(id string, avail bool) error {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("registry: unknown module %q", id)
	}
	changed := e.Available != avail
	e.Available = avail
	if changed {
		r.gen.Add(1)
	}
	if avail {
		e.Health.AutoRetired = false
		e.Health.ConsecutiveFailures = 0
	}
	r.mu.Unlock()
	if changed {
		r.notifyAvailability(id, avail)
	}
	return nil
}

// RetireProvider marks every module of the given provider unavailable and
// returns how many were affected. This models a third party interrupting
// its supply (e.g. the KEGG SOAP services in §6).
func (r *Registry) RetireProvider(provider string) int {
	r.mu.Lock()
	var retired []string
	for id, e := range r.entries {
		if e.Module.Provider == provider && e.Available {
			e.Available = false
			r.gen.Add(1)
			retired = append(retired, id)
		}
	}
	r.mu.Unlock()
	sort.Strings(retired)
	for _, id := range retired {
		r.notifyAvailability(id, false)
	}
	return len(retired)
}

// ByKind returns the available-or-not modules of the given kind, ID order.
func (r *Registry) ByKind(k module.Kind) []*module.Module {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*module.Module
	for _, e := range r.ordered {
		if e.Module.Kind == k {
			out = append(out, e.Module)
		}
	}
	return out
}

// Search returns modules whose ID, name or description contains the query
// (case-insensitive), in ID order. An empty query matches nothing.
func (r *Registry) Search(query string) []*module.Module {
	if query == "" {
		return nil
	}
	q := strings.ToLower(query)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*module.Module
	for _, e := range r.ordered {
		m := e.Module
		if strings.Contains(strings.ToLower(m.ID), q) ||
			strings.Contains(strings.ToLower(m.Name), q) ||
			strings.Contains(strings.ToLower(m.Description), q) {
			out = append(out, m)
		}
	}
	return out
}
