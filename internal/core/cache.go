package core

import (
	"context"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// CachedGenerator memoizes Generate results per module ID. The substitute
// search and the matcher ablations compare one target against hundreds of
// candidates, regenerating the target's (and every candidate's) example
// set from scratch for each pairing; the cache collapses that to one
// generation per module.
//
// The memoization key is the module ID, so the cache assumes a module's
// definition, binding and the generator configuration stay fixed for the
// cache's lifetime — which holds for a single experiment run or CLI
// invocation. Discard the cache after rebinding a module.
//
// Callers MUST treat the returned example set and report as read-only:
// unlike Generator.Generate, the same underlying slices are handed to
// every caller. All comparison paths in this repository only read them.
//
// A CachedGenerator is safe for concurrent use; concurrent first requests
// for the same module block on one generation (per-entry sync.Once)
// instead of duplicating work.
type CachedGenerator struct {
	gen *Generator

	mu      sync.Mutex
	entries map[string]*cacheEntry
}

var (
	_ ExampleGenerator        = (*Generator)(nil)
	_ ExampleGenerator        = (*CachedGenerator)(nil)
	_ ContextExampleGenerator = (*Generator)(nil)
	_ ContextExampleGenerator = (*CachedGenerator)(nil)
)

type cacheEntry struct {
	once sync.Once
	set  dataexample.Set
	rep  *Report
	err  error
}

// NewCachedGenerator wraps g with a per-module memo.
func NewCachedGenerator(g *Generator) *CachedGenerator {
	return &CachedGenerator{gen: g, entries: make(map[string]*cacheEntry)}
}

// Generate returns the memoized result for m, generating it on first use.
func (c *CachedGenerator) Generate(m *module.Module) (dataexample.Set, *Report, error) {
	return c.GenerateContext(context.Background(), m)
}

// GenerateContext is Generate with a context; the context reaches the
// underlying generator only for the caller that performs the actual
// generation (later callers are served from the memo without invoking
// anything).
func (c *CachedGenerator) GenerateContext(ctx context.Context, m *module.Module) (dataexample.Set, *Report, error) {
	c.mu.Lock()
	e, ok := c.entries[m.ID]
	if !ok {
		e = &cacheEntry{}
		c.entries[m.ID] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.set, e.rep, e.err = c.gen.GenerateContext(ctx, m)
	})
	return e.set, e.rep, e.err
}
