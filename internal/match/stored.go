package match

import (
	"context"
	"fmt"

	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// StoredExamples is the read view of a persisted example store that the
// substitute search needs: the annotation of a decayed module, kept from
// when it was still alive. *store.Store satisfies it.
type StoredExamples interface {
	// Get returns the stored example set and its content hash.
	Get(id string) (dataexample.Set, string, bool)
}

// FindSubstitutesStoredContext runs the substitute search for a module
// whose behaviour is known only through stored examples — the
// workflow-decay scenario of §6: the module can no longer be invoked, but
// its persisted annotation still describes what it used to do. The
// target's examples are read from st; candidates are generated through
// the Comparer's ExampleSource as usual (which may itself be
// store-backed, in which case the whole search runs against persisted
// annotations). The context carries request-scoped tracing to the search
// span.
func (c *Comparer) FindSubstitutesStoredContext(ctx context.Context, st StoredExamples, target *module.Module, available []*module.Module) (Substitutes, error) {
	if target == nil {
		return Substitutes{}, fmt.Errorf("match: nil target module")
	}
	set, _, ok := st.Get(target.ID)
	if !ok {
		return Substitutes{}, fmt.Errorf("match: no stored examples for module %s", target.ID)
	}
	return c.FindSubstitutesContext(ctx, Unavailable{Signature: target, Examples: set}, available)
}
