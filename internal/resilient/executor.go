// Package resilient wraps module executors with the defensive machinery a
// production deployment needs when invoking third-party scientific
// modules: per-attempt timeouts, bounded retry with exponential backoff
// and full jitter, and a per-module circuit breaker. Its companion is the
// error taxonomy of package module — only *transient* transport faults
// (module.TransientError) are retried and counted by the breaker;
// execution errors are the module's own verdict on an input
// combination and pass through untouched, so the paper's §3.2 generation
// heuristic keeps its semantics under an unreliable network.
package resilient

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/module"
	"dexa/internal/telemetry"
	"dexa/internal/typesys"
)

// Stats counts what the resilient layer did, with atomic counters safe
// for concurrent readers.
type Stats struct {
	// Calls is the number of Invoke calls.
	Calls atomic.Int64
	// Attempts is the number of provider round-trips attempted.
	Attempts atomic.Int64
	// Retries is the number of attempts beyond each call's first.
	Retries atomic.Int64
	// Recovered counts calls that failed transiently at least once but
	// ultimately reached a verdict (success or execution error).
	Recovered atomic.Int64
	// Exhausted counts calls that burned every attempt on transient faults.
	Exhausted atomic.Int64
	// ShortCircuited counts attempts rejected by an open breaker.
	ShortCircuited atomic.Int64
}

// Options configures a resilient executor wrapper.
type Options struct {
	// Policy is the retry policy; zero fields take DefaultPolicy values.
	Policy Policy
	// Breaker configures the per-module circuit breaker; zero fields take
	// defaults.
	Breaker BreakerConfig
	// Clock abstracts time for backoff sleeps and breaker cool-downs; nil
	// means the system clock.
	Clock Clock
	// Metrics, when set, exports per-module resilience counters
	// (dexa_resilient_{attempts,retries,recovered,exhausted,
	// short_circuits}_total{module=...}), the breaker position as
	// dexa_breaker_state{module=...} (0 closed, 1 open, 2 half-open) and
	// dexa_breaker_transitions_total{module=...,to=...}. A nil registry
	// records nothing.
	Metrics *telemetry.Registry
}

// executorMetrics holds the per-module telemetry handles; every field is
// a nil-safe no-op when Options.Metrics is nil.
type executorMetrics struct {
	attempts      *telemetry.Counter
	retries       *telemetry.Counter
	recovered     *telemetry.Counter
	exhausted     *telemetry.Counter
	shortCircuits *telemetry.Counter
}

// breakerStateValue maps a breaker state onto the gauge encoding.
func breakerStateValue(s BreakerState) float64 {
	switch s {
	case BreakerOpen:
		return 1
	case BreakerHalfOpen:
		return 2
	default:
		return 0
	}
}

// Executor wraps an inner module.Executor with timeout, retry, and
// circuit breaking. It implements both module.Executor and
// module.ContextExecutor and is safe for concurrent use.
type Executor struct {
	moduleID string
	inner    module.Executor
	policy   Policy
	breaker  *Breaker
	clock    Clock

	rngMu sync.Mutex
	rng   *rand.Rand

	met executorMetrics

	// Stats is live while the executor is in use; read with the atomic
	// accessors.
	Stats Stats
}

// Wrap builds a resilient executor around inner for the named module.
func Wrap(moduleID string, inner module.Executor, opts Options) *Executor {
	clock := opts.Clock
	if clock == nil {
		clock = SystemClock{}
	}
	pol := opts.Policy.withDefaults()
	seed := pol.Seed
	if seed == 0 {
		seed = 1
	}
	e := &Executor{
		moduleID: moduleID,
		inner:    inner,
		policy:   pol,
		breaker:  NewBreaker(opts.Breaker, clock),
		clock:    clock,
		rng:      rand.New(rand.NewSource(seed)),
	}
	if r := opts.Metrics; r != nil {
		e.met = executorMetrics{
			attempts:      r.CounterVec("dexa_resilient_attempts_total", "Provider round-trips attempted.", "module").With(moduleID),
			retries:       r.CounterVec("dexa_resilient_retries_total", "Attempts beyond each call's first.", "module").With(moduleID),
			recovered:     r.CounterVec("dexa_resilient_recovered_total", "Calls that faulted transiently but reached a verdict.", "module").With(moduleID),
			exhausted:     r.CounterVec("dexa_resilient_exhausted_total", "Calls that burned every attempt on transient faults.", "module").With(moduleID),
			shortCircuits: r.CounterVec("dexa_resilient_short_circuits_total", "Attempts rejected by an open breaker.", "module").With(moduleID),
		}
		state := r.GaugeVec("dexa_breaker_state", "Circuit-breaker position: 0 closed, 1 open, 2 half-open.", "module").With(moduleID)
		state.Set(0)
		transitions := r.CounterVec("dexa_breaker_transitions_total", "Circuit-breaker state changes by destination.", "module", "to")
		e.breaker.OnTransition(func(_, to BreakerState) {
			state.Set(breakerStateValue(to))
			transitions.With(moduleID, to.String()).Inc()
		})
	}
	return e
}

// Breaker exposes the wrapped module's circuit breaker (for inspection
// and tests).
func (e *Executor) Breaker() *Breaker { return e.breaker }

// Invoke implements module.Executor.
func (e *Executor) Invoke(inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	return e.InvokeContext(context.Background(), inputs)
}

// InvokeContext implements module.ContextExecutor: it drives the inner
// executor through the retry/breaker state machine until a verdict is
// reached or the attempt budget is spent.
func (e *Executor) InvokeContext(ctx context.Context, inputs map[string]typesys.Value) (outs map[string]typesys.Value, err error) {
	e.Stats.Calls.Add(1)
	ctx, span := telemetry.StartSpan(ctx, "resilient.invoke")
	span.Annotate("module", e.moduleID)
	attempts := 0
	defer func() {
		span.Annotate("attempts", strconv.Itoa(attempts))
		if module.IsTransient(err) {
			// Only transport faults are failures from the resilience layer's
			// point of view; an ExecutionError is a healthy verdict.
			span.Fail(err)
		}
		span.End()
	}()
	var lastErr error
	faulted := false
	for attempt := 1; attempt <= e.policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			e.Stats.Retries.Add(1)
			e.met.retries.Inc()
			e.clock.Sleep(e.nextBackoff(attempt - 1))
		}
		if err := ctx.Err(); err != nil {
			return nil, module.Transient(e.moduleID, module.FaultTimeout, err)
		}
		if err := e.breaker.Allow(); err != nil {
			e.Stats.ShortCircuited.Add(1)
			e.met.shortCircuits.Inc()
			lastErr = e.stamp(err)
			continue
		}
		e.Stats.Attempts.Add(1)
		e.met.attempts.Inc()
		attempts++
		outs, err := e.invokeOnce(ctx, inputs)
		if err == nil {
			e.breaker.OnSuccess()
			if faulted {
				e.Stats.Recovered.Add(1)
				e.met.recovered.Inc()
			}
			return outs, nil
		}
		if !module.IsTransient(err) {
			// The provider answered; the module itself rejected the inputs
			// (or the caller misused the API). That is a *healthy* provider.
			e.breaker.OnSuccess()
			if faulted {
				e.Stats.Recovered.Add(1)
				e.met.recovered.Inc()
			}
			return nil, err
		}
		faulted = true
		e.breaker.OnFailure()
		lastErr = e.stamp(err)
	}
	e.Stats.Exhausted.Add(1)
	e.met.exhausted.Inc()
	if lastErr == nil {
		lastErr = module.Transient(e.moduleID, module.FaultUnknown, nil)
	}
	return nil, lastErr
}

// invokeOnce performs one attempt, applying the per-attempt timeout and
// classifying a raw deadline error as a transient timeout fault.
func (e *Executor) invokeOnce(ctx context.Context, inputs map[string]typesys.Value) (map[string]typesys.Value, error) {
	if e.policy.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.policy.AttemptTimeout)
		defer cancel()
	}
	outs, err := module.InvokeWithContext(ctx, e.inner, inputs)
	if err != nil && !module.IsTransient(err) &&
		(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		return nil, module.Transient(e.moduleID, module.FaultTimeout, err)
	}
	return outs, err
}

func (e *Executor) nextBackoff(retry int) time.Duration {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	return e.policy.backoff(retry, e.rng)
}

// stamp ensures transient errors carry the module ID.
func (e *Executor) stamp(err error) error {
	var te *module.TransientError
	if errors.As(err, &te) && te.ModuleID == "" {
		te.ModuleID = e.moduleID
	}
	return err
}
