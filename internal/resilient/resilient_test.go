package resilient

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dexa/internal/module"
	"dexa/internal/typesys"
)

// scriptedExec fails transiently for the first fail calls, then succeeds.
type scriptedExec struct {
	mu    sync.Mutex
	fail  int
	kind  module.FaultKind
	calls int
	// semantic, when set, makes the executor answer with a non-transient
	// execution-style error instead of success.
	semantic error
}

func (s *scriptedExec) Invoke(in map[string]typesys.Value) (map[string]typesys.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.fail {
		return nil, module.Transient("", s.kind, errors.New("injected"))
	}
	if s.semantic != nil {
		return nil, s.semantic
	}
	return map[string]typesys.Value{"out": typesys.Str("ok")}, nil
}

func TestExecutorRetriesTransientFaults(t *testing.T) {
	clock := NewFakeClock()
	inner := &scriptedExec{fail: 2, kind: module.FaultConnection}
	ex := Wrap("m1", inner, Options{
		Policy: Policy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Seed: 7},
		Clock:  clock,
	})
	outs, err := ex.Invoke(nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if got := string(outs["out"].(typesys.StringValue)); got != "ok" {
		t.Fatalf("out = %q", got)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls = %d, want 3", inner.calls)
	}
	if ex.Stats.Retries.Load() != 2 || ex.Stats.Recovered.Load() != 1 {
		t.Fatalf("stats = retries %d recovered %d", ex.Stats.Retries.Load(), ex.Stats.Recovered.Load())
	}
	if clock.Slept() <= 0 {
		t.Fatal("expected jittered backoff sleeps on the fake clock")
	}
}

func TestExecutorDoesNotRetryExecutionErrors(t *testing.T) {
	inner := &scriptedExec{semantic: module.ErrRejectedInput}
	ex := Wrap("m1", inner, Options{Clock: NewFakeClock()})
	_, err := ex.Invoke(nil)
	if !errors.Is(err, module.ErrRejectedInput) {
		t.Fatalf("err = %v, want ErrRejectedInput", err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (no retries on semantic errors)", inner.calls)
	}
	if module.IsTransient(err) {
		t.Fatal("execution error misclassified as transient")
	}
}

func TestExecutorExhaustsAndReportsTransient(t *testing.T) {
	inner := &scriptedExec{fail: 99, kind: module.FaultThrottled}
	ex := Wrap("m1", inner, Options{
		Policy:  Policy{MaxAttempts: 3, Seed: 3},
		Breaker: BreakerConfig{FailureThreshold: 100},
		Clock:   NewFakeClock(),
	})
	_, err := ex.Invoke(nil)
	if !module.IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if kind, _ := module.FaultKindOf(err); kind != module.FaultThrottled {
		t.Fatalf("kind = %v, want throttled", kind)
	}
	var te *module.TransientError
	if errors.As(err, &te); te.ModuleID != "m1" {
		t.Fatalf("ModuleID = %q, want m1", te.ModuleID)
	}
	if ex.Stats.Exhausted.Load() != 1 {
		t.Fatalf("exhausted = %d", ex.Stats.Exhausted.Load())
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := NewFakeClock()
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 10 * time.Second}, clock)

	if b.State() != BreakerClosed {
		t.Fatalf("initial state = %v", b.State())
	}
	// Threshold-1 failures keep it closed; a success resets the count.
	for i := 0; i < 2; i++ {
		b.OnFailure()
	}
	b.OnSuccess()
	for i := 0; i < 2; i++ {
		b.OnFailure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after reset+2 failures = %v, want closed", b.State())
	}
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold = %v, want open", b.State())
	}
	if err := b.Allow(); err == nil || !module.IsTransient(err) {
		t.Fatalf("open breaker Allow = %v, want transient unavailable", err)
	}
	if b.ShortCircuits() != 1 {
		t.Fatalf("short circuits = %d", b.ShortCircuits())
	}

	// Cool-down not yet elapsed: still open.
	clock.Advance(9 * time.Second)
	if b.State() != BreakerOpen {
		t.Fatalf("state before cooldown = %v, want open", b.State())
	}
	// Cool-down elapsed: half-open admits exactly one probe.
	clock.Advance(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("second concurrent half-open probe should be rejected")
	}
	// Failed probe re-opens immediately.
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
	// Next window: successful probe closes the breaker.
	clock.Advance(10 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second cooldown rejected: %v", err)
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after good probe = %v, want closed", b.State())
	}
}

func TestExecutorBreakerShortCircuits(t *testing.T) {
	clock := NewFakeClock()
	inner := &scriptedExec{fail: 99, kind: module.FaultUnavailable}
	ex := Wrap("m1", inner, Options{
		Policy:  Policy{MaxAttempts: 2, Seed: 5},
		Breaker: BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		Clock:   clock,
	})
	// First call: two attempts, both fail, breaker opens.
	if _, err := ex.Invoke(nil); !module.IsTransient(err) {
		t.Fatalf("err = %v", err)
	}
	if ex.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker = %v, want open", ex.Breaker().State())
	}
	callsBefore := inner.calls
	// Second call fails fast without touching the provider.
	_, err := ex.Invoke(nil)
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen cause", err)
	}
	if inner.calls != callsBefore {
		t.Fatalf("open breaker still reached provider (%d -> %d calls)", callsBefore, inner.calls)
	}
	if ex.Stats.ShortCircuited.Load() == 0 {
		t.Fatal("expected short-circuited attempts")
	}
}

func TestPolicyBackoffJitterBounds(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: 42}.withDefaults()
	clock := NewFakeClock()
	inner := &scriptedExec{fail: 4, kind: module.FaultConnection}
	ex := Wrap("m1", inner, Options{Policy: p, Breaker: BreakerConfig{FailureThreshold: 100}, Clock: clock})
	if _, err := ex.Invoke(nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// Worst case: 100ms + 200ms + 400ms + 800ms = 1.5s of backoff caps.
	if max := 1500 * time.Millisecond; clock.Slept() > max {
		t.Fatalf("slept %v, exceeds full-jitter cap %v", clock.Slept(), max)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	run := func() time.Duration {
		clock := NewFakeClock()
		inner := &scriptedExec{fail: 3, kind: module.FaultConnection}
		ex := Wrap("m", inner, Options{
			Policy:  Policy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 99},
			Breaker: BreakerConfig{FailureThreshold: 100},
			Clock:   clock,
		})
		if _, err := ex.Invoke(nil); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		return clock.Slept()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different total backoff: %v vs %v", a, b)
	}
}

// flakyExec answers from a seeded stream: a transient fault, an
// execution error or a success. It counts the calls that reach it.
type flakyExec struct {
	mu    sync.Mutex
	rng   *rand.Rand
	calls int
}

func (f *flakyExec) Invoke(in map[string]typesys.Value) (map[string]typesys.Value, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	switch r := f.rng.Float64(); {
	case r < 0.5:
		return nil, module.Transient("", module.FaultUnavailable, errors.New("injected"))
	case r < 0.6:
		return nil, errors.New("rejected input")
	}
	return map[string]typesys.Value{"out": typesys.Str("ok")}, nil
}

// TestExecutorConcurrent: one Executor, and so one breaker, shared by
// many goroutines over a flaky provider, as the chaos sweeps share them
// across workers. Every loop turn of every call is counted exactly once,
// as an attempt or as a short circuit; every attempt reaches the
// provider; and each call ends at most once recovered or exhausted.
func TestExecutorConcurrent(t *testing.T) {
	inner := &flakyExec{rng: rand.New(rand.NewSource(11))}
	ex := Wrap("m1", inner, Options{
		Policy:  Policy{MaxAttempts: 3, Seed: 7},
		Breaker: BreakerConfig{FailureThreshold: 3, Cooldown: 20 * time.Millisecond},
		Clock:   NewFakeClock(),
	})
	const workers, calls = 16, 200
	var wg sync.WaitGroup
	var transient atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := ex.Invoke(nil); module.IsTransient(err) {
					transient.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	st := &ex.Stats
	if got := st.Calls.Load(); got != workers*calls {
		t.Fatalf("Calls = %d, want %d", got, workers*calls)
	}
	if a, s, c, r := st.Attempts.Load(), st.ShortCircuited.Load(), st.Calls.Load(), st.Retries.Load(); a+s != c+r {
		t.Errorf("Attempts %d + ShortCircuited %d != Calls %d + Retries %d", a, s, c, r)
	}
	if r, x, c := st.Recovered.Load(), st.Exhausted.Load(), st.Calls.Load(); r+x > c {
		t.Errorf("Recovered %d + Exhausted %d > Calls %d", r, x, c)
	}
	if got := int64(inner.calls); got != st.Attempts.Load() {
		t.Errorf("provider saw %d calls, Attempts = %d", got, st.Attempts.Load())
	}
	if transient.Load() != st.Exhausted.Load() {
		t.Errorf("%d calls returned a transient error, Exhausted = %d", transient.Load(), st.Exhausted.Load())
	}
	if st.ShortCircuited.Load() == 0 || st.Recovered.Load() == 0 || st.Exhausted.Load() == 0 {
		t.Errorf("the run missed a path: %d short circuits, %d recovered, %d exhausted",
			st.ShortCircuited.Load(), st.Recovered.Load(), st.Exhausted.Load())
	}
}

// ShortCircuits returns how many calls the breaker rejected without
// touching the provider.
func (b *Breaker) ShortCircuits() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shortCircuit
}
