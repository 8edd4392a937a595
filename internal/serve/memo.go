package serve

import (
	"sync"
	"sync/atomic"

	"dexa/internal/telemetry"
)

// versioned memoizes one answer derived from catalog state together with
// the key it was derived at: a catalogVersion, a state string, or any
// comparable that moves whenever the answer may change. get answers from
// the memo while the key holds and rebuilds under the lock only when the
// key has moved, so concurrent misses collapse onto one build. A build
// may decline to be kept (a partial cluster answer); it then reaches its
// caller only and the memo keeps what it held.
//
// Keys are read before the state they describe, so a kept answer is at
// least as new as its key: a change landing mid-build moves the key, and
// the next get rebuilds.
type versioned[K comparable, V any] struct {
	mu  sync.Mutex
	ok  bool
	key K
	val V
	// size is the bytes val keeps when V is a keptBytes, stored with val
	// and read without the lock, so a scrape never waits on a build.
	size atomic.Int64
}

// keptBytes is implemented by memoised values that hold encoded bytes.
type keptBytes interface{ keptBytes() int }

// get returns the answer at key and whether it came from the memo.
func (m *versioned[K, V]) get(key K, build func() (V, bool, error)) (V, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ok && m.key == key {
		return m.val, true, nil
	}
	v, keep, err := build()
	if err == nil && keep {
		m.ok, m.key, m.val = true, key, v
		if b, ok := any(&m.val).(keptBytes); ok {
			m.size.Store(int64(b.keptBytes()))
		}
	}
	return v, false, err
}

// kept returns the key of the answer the memo keeps, and false when it
// keeps none. A caller that revalidates the answer elsewhere sends what
// the key names.
func (m *versioned[K, V]) kept() (K, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.key, m.ok
}

// memoBytes sums the bytes kept by the per-module memos in m.
func memoBytes[K comparable, V any](m *sync.Map) float64 {
	var n int64
	m.Range(func(_, memo any) bool {
		n += memo.(*versioned[K, V]).size.Load()
		return true
	})
	return float64(n)
}

// memoFor returns the memo kept for module id in m, adding an empty one
// on first use. Each module has its own memo, so identical misses
// arriving together collapse onto one build while builds for different
// modules proceed side by side.
func memoFor[K comparable, V any](m *sync.Map, id string) *versioned[K, V] {
	memo, ok := m.Load(id)
	if !ok {
		memo, _ = m.LoadOrStore(id, new(versioned[K, V]))
	}
	return memo.(*versioned[K, V])
}

// memoCounter counts one per-module memo's lookups by outcome.
type memoCounter struct{ hit, miss *telemetry.Counter }

func (c memoCounter) record(hit bool) {
	if hit {
		c.hit.Inc()
	} else {
		c.miss.Inc()
	}
}

// memoCounters are the dexa_serve_memo_total handles of the /examples
// and /substitutes memos, resolved once per Server so a warm request
// records without a label lookup. A miss on /substitutes is a live
// substitute search; a hit writes kept bytes. The same once registers
// dexa_serve_memo_bytes, the bytes both memos keep, summed on scrape.
type memoCounters struct{ examples, subs memoCounter }

func (s *Server) memoMetrics() *memoCounters {
	s.memoOnce.Do(func() {
		v := s.Telemetry.CounterVec("dexa_serve_memo_total",
			"Per-module /examples and /substitutes memo lookups: a hit writes kept bytes, a miss encodes afresh (on /substitutes after a live search).",
			"memo", "result")
		kept := s.Telemetry.GaugeVec("dexa_serve_memo_bytes",
			"Bytes of encoded answers the per-module /examples and /substitutes memos keep, summed on scrape.",
			"memo")
		kept.Func(func() float64 { return memoBytes[examplesKey, answer](&s.examples) }, "examples")
		kept.Func(func() float64 { return memoBytes[subsKey, subsAnswer](&s.subs) }, "substitutes")
		s.memoStats = memoCounters{
			examples: memoCounter{v.With("examples", "hit"), v.With("examples", "miss")},
			subs:     memoCounter{v.With("substitutes", "hit"), v.With("substitutes", "miss")},
		}
	})
	return &s.memoStats
}
