// Package lifecycle runs the live catalog: a background probe scheduler
// that periodically re-invokes registered modules through the resilient
// executor stack, diffs what they answer against the stored data examples
// that annotate them (§3: δ = ⟨I, O⟩), and drives a per-module state
// machine
//
//	healthy → suspect → quarantined → retired
//	                 ↘ probation ↗
//
// turning the paper's offline workflow-decay experiment (§6) into a
// continuous preservation process in the spirit of Hettne et al.'s
// Research Objects: decay is detected as it happens, quarantined modules
// get a probation path back when their provider recovers, and retirement
// automatically triggers substitute search plus repair proposals queued
// for human approval.
//
// Every transition is appended to a durable, WAL-backed event log
// (store.Journal) exposed by the serving layer as a change feed, and a
// restarted manager restores each module's state from it; the repair
// queue survives restarts the same way. Availability flips go only
// through the registry, whose hook updates every derived view. All time flows through
// resilient.Clock, so the whole subsystem — jittered schedules, backoff,
// probation windows — is deterministic under the fake clock.
package lifecycle

import (
	"encoding/json"
	"fmt"
	"time"
)

// Canonical journal file names inside a store directory, shared by
// dexa-serve (which writes them) and dexa-repair -queue (which reads the
// queue back).
const (
	EventLogFile = "lifecycle-events.log"
	QueueFile    = "repair-queue.log"
)

// State is a module's position in the lifecycle state machine.
type State int

const (
	// StateHealthy: recent probes agree with the stored annotation.
	StateHealthy State = iota
	// StateSuspect: the last probe disagreed (drifted output or dead
	// provider); the module stays available while the evidence accrues.
	StateSuspect
	// StateQuarantined: enough consecutive bad probes — the module is
	// pulled from the available catalog (and the match index) but keeps
	// being probed in case the provider recovers.
	StateQuarantined
	// StateProbation: a quarantined module answered correctly again; it
	// must stay correct for a configured number of probes before
	// re-admission.
	StateProbation
	// StateRetired: the module kept failing through quarantine. Probing
	// stops, substitute search runs, and repair proposals are enqueued.
	StateRetired
)

var stateNames = [...]string{"healthy", "suspect", "quarantined", "probation", "retired"}

// String returns the lowercase state name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// MarshalJSON encodes the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a state name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stateNames {
		if n == name {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("lifecycle: unknown state %q", name)
}

// ProbeOutcome classifies one probe of one module.
type ProbeOutcome int

const (
	// ProbeHealthy: every invoked example reproduced its recorded output.
	ProbeHealthy ProbeOutcome = iota
	// ProbeDrifted: the module answered, but at least one output diverged
	// from the stored example (or a previously valid input was rejected) —
	// the silent-decay case data examples exist to catch.
	ProbeDrifted
	// ProbeDead: every invocation failed transiently — the provider is
	// unreachable.
	ProbeDead
	// ProbeSkipped: the module has no stored examples to probe against.
	ProbeSkipped
)

var outcomeNames = [...]string{"healthy", "drifted", "dead", "skipped"}

// String returns the lowercase outcome name.
func (o ProbeOutcome) String() string {
	if o < 0 || int(o) >= len(outcomeNames) {
		return fmt.Sprintf("outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// MarshalJSON encodes the outcome as its name.
func (o ProbeOutcome) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON decodes an outcome name.
func (o *ProbeOutcome) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range outcomeNames {
		if n == name {
			*o = ProbeOutcome(i)
			return nil
		}
	}
	return fmt.Errorf("lifecycle: unknown probe outcome %q", name)
}

// Event is one lifecycle transition. Events are totally ordered by Seq
// (1-based, contiguous), which doubles as the change-feed resume cursor.
type Event struct {
	Seq    uint64       `json:"seq"`
	At     time.Time    `json:"at"`
	Module string       `json:"module"`
	From   State        `json:"from"`
	To     State        `json:"to"`
	Probe  ProbeOutcome `json:"probe"`
	// Reason is a human-readable explanation of the transition.
	Reason string `json:"reason,omitempty"`
}
