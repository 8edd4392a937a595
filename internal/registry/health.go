package registry

import (
	"fmt"
)

// Health tracks a module's invocation outcomes as observed by the
// resilient execution layer. Consecutive transient failures feed the
// availability flag: a provider that keeps failing is treated as decayed
// (the §6 workflow-decay signal), while its signature and data examples
// remain in the registry for substitution search.
type Health struct {
	// ConsecutiveFailures counts transient failures since the last success.
	ConsecutiveFailures int
	// TotalFailures and TotalSuccesses count all reports.
	TotalFailures  int
	TotalSuccesses int
	// LastError is the message of the most recent failure.
	LastError string
	// AutoRetired reports whether the failure threshold retired the module.
	AutoRetired bool
}

// SetFailureThreshold configures auto-retirement: after n consecutive
// transient failures a module is marked unavailable. n <= 0 (the default)
// disables auto-retirement.
func (r *Registry) SetFailureThreshold(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failureThreshold = n
}

// RecordSuccess notes a healthy round-trip for the module. It resets the
// consecutive-failure count and revives a module that auto-retirement had
// marked unavailable (a half-open probe succeeded, so the provider is
// back). Unknown modules are ignored: health reports may race with
// deregistration.
func (r *Registry) RecordSuccess(id string) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return
	}
	e.Health.ConsecutiveFailures = 0
	e.Health.TotalSuccesses++
	revived := false
	if e.Health.AutoRetired {
		e.Health.AutoRetired = false
		e.Available = true
		r.gen.Add(1)
		revived = true
	}
	r.mu.Unlock()
	if revived {
		r.notifyAvailability(id, true)
	}
}

// RecordFailure notes a transient transport failure for the module and
// reports whether this report crossed the failure threshold and retired
// it. Modules retired by hand (SetAvailable/RetireProvider) stay retired.
func (r *Registry) RecordFailure(id string, err error) (retired bool) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return false
	}
	e.Health.ConsecutiveFailures++
	e.Health.TotalFailures++
	if err != nil {
		e.Health.LastError = err.Error()
	}
	if r.failureThreshold > 0 && e.Available && e.Health.ConsecutiveFailures >= r.failureThreshold {
		e.Available = false
		e.Health.AutoRetired = true
		r.gen.Add(1)
		r.mu.Unlock()
		r.notifyAvailability(id, false)
		return true
	}
	r.mu.Unlock()
	return false
}

// HealthOf returns a copy of the module's health record.
func (r *Registry) HealthOf(id string) (Health, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return Health{}, false
	}
	return e.Health, true
}

// HealthSummary renders one line per module that has any recorded
// outcome, sorted by ID — a quick operational view of provider decay.
func (r *Registry) HealthSummary() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, e := range r.ordered {
		if e.Health.TotalFailures == 0 && e.Health.TotalSuccesses == 0 {
			continue
		}
		state := "available"
		if !e.Available {
			state = "unavailable"
			if e.Health.AutoRetired {
				state = "auto-retired"
			}
		}
		out = append(out, fmt.Sprintf("%s: %d ok, %d failed (%d consecutive), %s",
			e.Module.ID, e.Health.TotalSuccesses, e.Health.TotalFailures, e.Health.ConsecutiveFailures, state))
	}
	return out
}
