// Package longpoll holds what dexa's long-polls share: /watch (lifecycle
// transitions), /wal (replicated store records) and
// /cluster/summary?wait= (a shard's search summary) each keep their own
// cursor and answers, and take from here one change signal, one ?wait=
// parse, one park, one drain latch and one retry backoff.
package longpoll

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// Signal broadcasts that a counter moved. It has no lock of its own: the
// owner calls Fire and Wait under the lock that guards the counter, so a
// channel handed out before a move is closed by it. The zero value is
// ready.
type Signal struct{ ch chan struct{} } // nil until someone waits

// Fire wakes every waiter handed out since the last Fire.
func (s *Signal) Fire() {
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// Wait returns a channel closed at the next Fire, or, when moved reports
// that the caller's cursor is already behind, one already closed.
func (s *Signal) Wait(moved bool) <-chan struct{} {
	if moved {
		return closed
	}
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

var closed = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Latch is a drain signal, closed once when a graceful shutdown starts
// so parked and future waiters answer at once. The zero value is open.
type Latch struct {
	once   sync.Once
	ctx    context.Context
	cancel context.CancelFunc
}

// Context returns a context that ends when the latch closes.
func (l *Latch) Context() context.Context {
	l.once.Do(func() { l.ctx, l.cancel = context.WithCancel(context.Background()) })
	return l.ctx
}

// Done returns the channel Close closes.
func (l *Latch) Done() <-chan struct{} { return l.Context().Done() }

// Close closes the latch; later calls do nothing.
func (l *Latch) Close() {
	l.Context()
	l.cancel()
}

// Closed reports whether Close has been called.
func (l *Latch) Closed() bool { return l.Context().Err() != nil }

// DefaultWait is the window when ?wait= is absent; MaxWait caps it.
const (
	DefaultWait = 25 * time.Second
	MaxWait     = 30 * time.Second
)

// ParseWait reads a ?wait= value: def when v is empty, capped at
// MaxWait. A malformed or negative value is an error naming it.
func ParseWait(v string, def time.Duration) (time.Duration, error) {
	if v == "" {
		return min(def, MaxWait), nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid wait %q", v)
	}
	return min(d, MaxWait), nil
}

// Outcome is how a Park ended.
type Outcome int

const (
	Changed   Outcome = iota // the change channel closed
	Timeout                  // the wait ran out
	Drained                  // the drain latch closed
	Cancelled                // the request's context ended
)

// Park waits until changed closes, wait passes, drain closes or ctx
// ends, and says which came first.
func Park(ctx context.Context, changed, drain <-chan struct{}, wait time.Duration) Outcome {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-changed:
		return Changed
	case <-timer.C:
		return Timeout
	case <-drain:
		return Drained
	case <-ctx.Done():
		return Cancelled
	}
}

// Backoff is a poll loop's retry delay: 50 ms after a failed round,
// doubling on each further one up to Max, and back to 50 ms on Reset.
type Backoff struct {
	Max time.Duration
	d   time.Duration
}

// Sleep waits out the current delay and doubles it. It reports false
// as soon as ctx ends.
func (b *Backoff) Sleep(ctx context.Context) bool {
	b.d = max(b.d, 50*time.Millisecond)
	timer := time.NewTimer(b.d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		b.d = min(2*b.d, b.Max)
		return true
	}
}

// Reset makes the next Sleep wait the first delay again.
func (b *Backoff) Reset() { b.d = 0 }

// Nonce returns a random token naming one instance of a counter's owner.
// A counter restarts with its process, so a validator built from it
// carries the nonce too, and one minted before a restart never validates
// a state reached after it. A failed read leaves the token zero, which
// only loses that protection (crypto/rand does not fail on the
// platforms dexa runs on).
func Nonce() string {
	var b [8]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
