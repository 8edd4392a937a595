package serve

import "sync"

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
}

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
	}
	return v, false, err
}
