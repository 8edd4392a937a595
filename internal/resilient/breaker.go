package resilient

import (
	"fmt"
	"sync"
	"time"

	"dexa/internal/module"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

// The canonical three breaker states.
const (
	// BreakerClosed: calls flow normally; consecutive transient failures are
	// counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the failure threshold was reached; calls fail fast
	// without touching the provider until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen: the cool-down elapsed; a limited number of probe
	// calls is let through. One success closes the breaker, one failure
	// re-opens it.
	BreakerHalfOpen
)

// String returns the lexical state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig parameterises a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive transient failures that
	// opens the breaker (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before allowing half-open
	// probes (default 30s).
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probe calls the half-open state
	// admits (default 1).
	HalfOpenProbes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	return c
}

// Breaker is a per-module circuit breaker. It only reacts to *transient*
// failures: an execution error (the module rejecting an input combination)
// is a healthy round-trip and counts as success. Safe for concurrent use.
type Breaker struct {
	cfg   BreakerConfig
	clock Clock

	mu           sync.Mutex
	state        BreakerState
	consecutive  int       // consecutive transient failures while closed
	openedAt     time.Time // when the breaker last opened
	probesInUse  int       // admitted half-open probes awaiting a verdict
	openCount    int       // times the breaker transitioned to open
	shortCircuit int       // calls rejected while open

	// onTransition, when set, observes every state change. It is invoked
	// with the breaker mutex held, so it must be fast and must not call
	// back into the breaker; the telemetry layer uses it to keep a state
	// gauge and a transition counter current.
	onTransition func(from, to BreakerState)
}

// NewBreaker creates a breaker with the given configuration; a nil clock
// means the system clock.
func NewBreaker(cfg BreakerConfig, clock Clock) *Breaker {
	if clock == nil {
		clock = SystemClock{}
	}
	return &Breaker{cfg: cfg.withDefaults(), clock: clock}
}

// State returns the current state, accounting for an elapsed cool-down
// (an open breaker whose cool-down has passed reports half-open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refresh()
	return b.state
}

// OnTransition installs a state-change observer (nil clears it). The hook
// runs with the breaker mutex held — keep it cheap and never call back
// into the breaker from it. Install before the breaker sees traffic;
// installation does not synchronise with in-flight calls.
func (b *Breaker) OnTransition(fn func(from, to BreakerState)) {
	b.mu.Lock()
	b.onTransition = fn
	b.mu.Unlock()
}

// transition changes state and notifies the observer. Callers must hold
// b.mu; no-op when the state is unchanged.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// refresh moves open→half-open once the cool-down has elapsed. Callers
// must hold b.mu.
func (b *Breaker) refresh() {
	if b.state == BreakerOpen && b.clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transition(BreakerHalfOpen)
		b.probesInUse = 0
	}
}

// ErrOpen is the sentinel cause used when a call is rejected by an open
// breaker.
var ErrOpen = fmt.Errorf("circuit breaker open")

// Allow reports whether a call may proceed. A rejection is returned as a
// transient unavailable fault, so upstream layers treat fail-fast exactly
// like provider downtime. Every admitted call must be concluded with
// OnSuccess or OnFailure.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refresh()
	switch b.state {
	case BreakerOpen:
		b.shortCircuit++
		return module.Transient("", module.FaultUnavailable, ErrOpen)
	case BreakerHalfOpen:
		if b.probesInUse >= b.cfg.HalfOpenProbes {
			b.shortCircuit++
			return module.Transient("", module.FaultUnavailable, ErrOpen)
		}
		b.probesInUse++
	}
	return nil
}

// OnSuccess records a healthy round-trip: it closes a half-open breaker
// and resets the consecutive-failure count.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probesInUse = 0
	}
	b.transition(BreakerClosed)
	b.consecutive = 0
}

// OnFailure records a transient failure: it re-opens a half-open breaker
// immediately and opens a closed breaker once the threshold is reached.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.cfg.FailureThreshold {
			b.open()
		}
	}
}

// open transitions to the open state. Callers must hold b.mu.
func (b *Breaker) open() {
	b.transition(BreakerOpen)
	b.openedAt = b.clock.Now()
	b.consecutive = 0
	b.probesInUse = 0
	b.openCount++
}

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openCount
}
