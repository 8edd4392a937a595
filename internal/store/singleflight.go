package store

import (
	"sync"

	"dexa/internal/core"
	"dexa/internal/dataexample"
)

// flightGroup collapses concurrent duplicate work: while one caller runs
// fn for a key, every other caller for the same key blocks and receives
// the leader's result. Keys are forgotten once the call completes, so a
// failed generation can be retried by the next request instead of
// pinning the error forever. This is the thundering-herd guard of the
// serving layer: N identical concurrent generation requests perform
// exactly one generator run.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	set  dataexample.Set
	hash string
	rep  *core.Report
	err  error
}

// do runs fn once per concurrent burst of callers sharing key. fn
// returns a stored set with its content hash. shared reports whether
// this caller received another caller's result.
func (g *flightGroup) do(key string, fn func() (dataexample.Set, string, *core.Report, error)) (set dataexample.Set, hash string, rep *core.Report, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.set, c.hash, c.rep, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.set, c.hash, c.rep, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.set, c.hash, c.rep, c.err, false
}
