// Package faults is a deterministic, seedable fault-injection layer for
// the simulation universe. The paper's §6 observes that third-party
// scientific services decay — providers throttle, time out, and retire
// endpoints — so a faithful experimental world must be able to model that
// volatility. The injector wraps any module.Executor, http.Handler, or
// http.RoundTripper and injects configurable transient failures:
// connection resets, HTTP 429/503 answers, latency spikes, truncated or
// garbage response bodies, and flapping availability windows.
//
// All randomness flows from one seeded source, so a chaos run is exactly
// reproducible: the same seed and profile produce the same fault sequence
// invocation-for-invocation.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault enumerates the injectable fault outcomes.
type Fault int

// The fault outcomes. FaultNone means the call proceeds untouched.
const (
	FaultNone Fault = iota
	// FaultConnReset drops the connection (client sees a reset/EOF).
	FaultConnReset
	// FaultThrottle answers HTTP 429 Too Many Requests.
	FaultThrottle
	// FaultUnavailable answers HTTP 503 Service Unavailable.
	FaultUnavailable
	// FaultTruncate serves a 200 whose body is cut off halfway.
	FaultTruncate
	// FaultGarbage serves a 200 whose body is undecodable junk.
	FaultGarbage
	// FaultLatency delays the call, then serves it normally.
	FaultLatency
)

// String returns the lexical fault name.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultConnReset:
		return "conn-reset"
	case FaultThrottle:
		return "throttle"
	case FaultUnavailable:
		return "unavailable"
	case FaultTruncate:
		return "truncate"
	case FaultGarbage:
		return "garbage"
	case FaultLatency:
		return "latency"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// Profile is the per-module fault mix. Each rate is an independent slice
// of the probability mass: a draw lands in exactly one fault (or none).
// The rates must sum to at most 1.
type Profile struct {
	// ConnReset is the probability of a dropped connection.
	ConnReset float64
	// Throttle is the probability of an HTTP 429.
	Throttle float64
	// Unavailable is the probability of an HTTP 503.
	Unavailable float64
	// Truncate is the probability of a truncated 200 body.
	Truncate float64
	// Garbage is the probability of a garbage 200 body.
	Garbage float64
	// Latency is the probability of a latency spike of LatencyAmount before
	// a normal answer.
	Latency float64
	// LatencyAmount is the injected delay for latency faults.
	LatencyAmount time.Duration
	// FlapEvery/FlapFor model flapping availability: after every FlapEvery
	// served requests the module goes dark for FlapFor requests (all
	// answered 503), deterministically and regardless of the random rates.
	// FlapEvery <= 0 disables flapping.
	FlapEvery int
	FlapFor   int
}

// TransientRate is the total probability mass of call-failing faults
// (everything except latency, which delays but still answers).
func (p Profile) TransientRate() float64 {
	return p.ConnReset + p.Throttle + p.Unavailable + p.Truncate + p.Garbage
}

// Enabled reports whether the profile can inject anything at all.
func (p Profile) Enabled() bool {
	return p.TransientRate() > 0 || p.Latency > 0 || p.FlapEvery > 0
}

// Validate rejects profiles whose probability mass exceeds 1 or is
// negative.
func (p Profile) Validate() error {
	for _, r := range []float64{p.ConnReset, p.Throttle, p.Unavailable, p.Truncate, p.Garbage, p.Latency} {
		if r < 0 {
			return fmt.Errorf("faults: negative rate in profile")
		}
	}
	if total := p.TransientRate() + p.Latency; total > 1 {
		return fmt.Errorf("faults: profile rates sum to %.3f > 1", total)
	}
	return nil
}

// Uniform spreads rate evenly over the five transient fault shapes — a
// convenient "r%% of calls fail somehow" profile.
func Uniform(rate float64) Profile {
	each := rate / 5
	return Profile{ConnReset: each, Throttle: each, Unavailable: each, Truncate: each, Garbage: each}
}

// Plan maps modules to fault profiles. Modules without a dedicated entry
// use Default.
type Plan struct {
	Default   Profile
	PerModule map[string]Profile
}

// For returns the profile governing moduleID.
func (p Plan) For(moduleID string) Profile {
	if prof, ok := p.PerModule[moduleID]; ok {
		return prof
	}
	return p.Default
}

// Injector decides, deterministically from a seed, which fault (if any)
// each call suffers. It is safe for concurrent use; under concurrency the
// fault sequence is still drawn from the seeded stream, though the
// interleaving follows goroutine scheduling.
type Injector struct {
	plan Plan
	// SleepFn performs latency injections; nil means time.Sleep. Tests
	// substitute a fake-clock sleep so no real time passes.
	SleepFn func(time.Duration)

	mu     sync.Mutex
	rng    *rand.Rand
	served map[string]int // per-module request counter, drives flapping
	counts map[Fault]int
	total  int
}

// NewInjector creates an injector over plan whose fault stream is fully
// determined by seed.
func NewInjector(seed int64, plan Plan) *Injector {
	return &Injector{
		plan:   plan,
		rng:    rand.New(rand.NewSource(seed)),
		served: map[string]int{},
		counts: map[Fault]int{},
	}
}

// Decide draws the fault outcome for one call against moduleID.
func (i *Injector) Decide(moduleID string) Fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	p := i.plan.For(moduleID)
	n := i.served[moduleID]
	i.served[moduleID] = n + 1
	i.total++

	f := FaultNone
	if p.FlapEvery > 0 && p.FlapFor > 0 && n%(p.FlapEvery+p.FlapFor) >= p.FlapEvery {
		f = FaultUnavailable
	} else {
		u := i.rng.Float64()
		switch {
		case u < p.ConnReset:
			f = FaultConnReset
		case u < p.ConnReset+p.Throttle:
			f = FaultThrottle
		case u < p.ConnReset+p.Throttle+p.Unavailable:
			f = FaultUnavailable
		case u < p.ConnReset+p.Throttle+p.Unavailable+p.Truncate:
			f = FaultTruncate
		case u < p.ConnReset+p.Throttle+p.Unavailable+p.Truncate+p.Garbage:
			f = FaultGarbage
		case u < p.ConnReset+p.Throttle+p.Unavailable+p.Truncate+p.Garbage+p.Latency:
			f = FaultLatency
		}
	}
	i.counts[f]++
	return f
}

// sleep performs a latency injection.
func (i *Injector) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if i.SleepFn != nil {
		i.SleepFn(d)
		return
	}
	time.Sleep(d)
}

// Profile returns the profile governing moduleID.
func (i *Injector) Profile(moduleID string) Profile { return i.plan.For(moduleID) }

// Injected returns how many calls were given a fault other than none.
func (i *Injector) Injected() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.total - i.counts[FaultNone]
}

// Total returns how many decisions were drawn.
func (i *Injector) Total() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.total
}
