package serve

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dexa/internal/module"
	"dexa/internal/simulation"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// The decay model of the legacy world as a scriptable schedule: the
// behavioural-mutant defacing that makes the no-match legacies
// unsubstitutable, plus provider death, applied to live catalog modules
// at chosen offsets. TestLifecycleEndToEnd drives it under the fake
// clock, so decay happens at deterministic instants and every probe
// observes exactly the scripted world state.

// decayMode says what happens to a module at a scheduled instant.
type decayMode int

const (
	// decayDrift rebinds the module to a behavioural mutant of itself:
	// it keeps answering, wrongly.
	decayDrift decayMode = iota
	// decayDeath rebinds the module to an executor whose every call
	// fails transiently: the provider vanished mid-supply.
	decayDeath
	// decayRecover restores the module's original executor.
	decayRecover
)

// decayEvent is one scripted change: After the given offset from the
// schedule start, the module decays (or recovers) in the given way.
type decayEvent struct {
	After    time.Duration
	ModuleID string
	Mode     decayMode
}

// decaySchedule applies scripted decay events to a universe's catalog as
// simulated time passes, in (After, ModuleID) order.
type decaySchedule struct {
	u         *simulation.Universe
	start     time.Time
	events    []decayEvent
	applied   int
	originals map[string]module.Executor
}

// newDecaySchedule builds a schedule over the universe's registry,
// anchored at start. The original executor of every scripted module is
// captured up front, so decayRecover always restores pre-decay behaviour
// no matter how many decays preceded it.
func newDecaySchedule(u *simulation.Universe, start time.Time, events []decayEvent) (*decaySchedule, error) {
	s := &decaySchedule{
		u: u, start: start,
		events:    append([]decayEvent(nil), events...),
		originals: map[string]module.Executor{},
	}
	sort.SliceStable(s.events, func(i, j int) bool {
		if s.events[i].After != s.events[j].After {
			return s.events[i].After < s.events[j].After
		}
		return s.events[i].ModuleID < s.events[j].ModuleID
	})
	for _, ev := range s.events {
		if _, seen := s.originals[ev.ModuleID]; seen {
			continue
		}
		e, ok := u.Registry.Get(ev.ModuleID)
		if !ok {
			return nil, fmt.Errorf("decay schedule names unknown module %q", ev.ModuleID)
		}
		s.originals[ev.ModuleID] = e.Module.Executor()
	}
	return s, nil
}

// catchUp applies every event due at or before now.
func (s *decaySchedule) catchUp(now time.Time) {
	for ; s.applied < len(s.events); s.applied++ {
		ev := s.events[s.applied]
		if s.start.Add(ev.After).After(now) {
			return
		}
		e, ok := s.u.Registry.Get(ev.ModuleID)
		if !ok {
			continue
		}
		switch ev.Mode {
		case decayDrift:
			e.Module.Bind(simulation.MutantExecutor(s.originals[ev.ModuleID]))
		case decayDeath:
			id := ev.ModuleID
			e.Module.Bind(module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
				return nil, module.Transient(id, module.FaultUnavailable, errors.New("provider gone"))
			}))
		case decayRecover:
			e.Module.Bind(s.originals[ev.ModuleID])
		}
	}
}

// remaining returns how many scripted events have not fired yet.
func (s *decaySchedule) remaining() int { return len(s.events) - s.applied }

// oneStepWorkflow is the simulated repository's workflow shape for one
// module: every input and output of the step is a workflow port.
func oneStepWorkflow(id, name string, m *module.Module) *workflow.Workflow {
	wf := &workflow.Workflow{ID: id, Name: name, Steps: []workflow.Step{{ID: "s0", ModuleID: m.ID}}}
	for _, p := range m.Inputs {
		port := "s0_" + p.Name
		wf.Inputs = append(wf.Inputs, workflow.Port{Name: port, Struct: p.Struct, Semantic: p.Semantic})
		wf.Links = append(wf.Links, workflow.Link{From: workflow.PortRef{Port: port}, To: workflow.PortRef{Step: "s0", Port: p.Name}})
	}
	for _, p := range m.Outputs {
		port := "s0_" + p.Name
		wf.Outputs = append(wf.Outputs, workflow.Port{Name: port, Struct: p.Struct, Semantic: p.Semantic})
		wf.Links = append(wf.Links, workflow.Link{From: workflow.PortRef{Step: "s0", Port: p.Name}, To: workflow.PortRef{Port: port}})
	}
	return wf
}
