package lifecycle

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/registry"
	"dexa/internal/resilient"
	"dexa/internal/telemetry"
)

// Config tunes the probe scheduler and state machine. Zero fields take
// the defaults documented per field.
type Config struct {
	// Interval is the base probe period per module (default 5m).
	Interval time.Duration
	// Jitter spreads consecutive probes by ±Jitter·Interval so modules
	// sharing a schedule drift apart instead of stampeding the providers
	// together (default 0.2, clamped to [0, 0.9]).
	Jitter float64
	// MaxExamples bounds how many stored examples one probe re-invokes
	// (default 4 — enough to catch the drift cases of §6 without turning
	// the probe itself into load).
	MaxExamples int
	// QuarantineAfter is the consecutive bad probes (counting the one
	// that made the module suspect) that quarantine it (default 2).
	QuarantineAfter int
	// RetireAfter is the additional consecutive bad probes while
	// quarantined that retire it (default 2).
	RetireAfter int
	// Probation is the consecutive healthy probes a quarantined module
	// must answer before re-admission (default 2).
	Probation int
	// MaxBackoffShift caps the exponential backoff applied to probes of
	// dead providers: the interval doubles per dead probe up to
	// Interval·2^MaxBackoffShift (default 4).
	MaxBackoffShift int
	// Workers bounds concurrent probes per sweep (default min(4, NumCPU)).
	Workers int
	// Seed makes phase offsets and jitter deterministic (default 1).
	Seed int64
	// Policy is the per-probe resilient retry policy; zero fields take
	// resilient.DefaultPolicy values.
	Policy resilient.Policy
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Minute
	}
	if c.Jitter == 0 {
		c.Jitter = 0.2
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter > 0.9 {
		c.Jitter = 0.9
	}
	if c.MaxExamples <= 0 {
		c.MaxExamples = 4
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 2
	}
	if c.RetireAfter <= 0 {
		c.RetireAfter = 2
	}
	if c.Probation <= 0 {
		c.Probation = 2
	}
	if c.MaxBackoffShift <= 0 {
		c.MaxBackoffShift = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 4 {
			c.Workers = 4
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Deps wires the manager into the rest of the system.
type Deps struct {
	// Registry is the module catalog; lifecycle transitions drive its
	// availability flags. Required.
	Registry *registry.Registry
	// Examples supplies the persisted annotations probes diff against
	// (typically *store.Store). Required.
	Examples match.StoredExamples
	// Log records transitions, and its history is the state NewManager
	// restores. Required.
	Log *Log
	// Queue and Planner enable repair-as-a-service on retirement; both
	// may be nil to disable.
	Queue   *Queue
	Planner *Planner
	// Clock abstracts time; nil means the system clock.
	Clock resilient.Clock
	// Metrics, when set, exports probe/transition/state series.
	Metrics *telemetry.Registry
}

// moduleState is the scheduler's per-module bookkeeping.
type moduleState struct {
	id           string
	state        State
	badStreak    int
	goodStreak   int
	backoffShift int
	probes       uint64
	nextDue      time.Time
	lastOutcome  ProbeOutcome
	lastProbed   time.Time
}

// Manager owns the probe schedule and the lifecycle state machine.
type Manager struct {
	cfg     Config
	reg     *registry.Registry
	store   match.StoredExamples
	log     *Log
	queue   *Queue
	planner *Planner
	clock   resilient.Clock

	mu    sync.Mutex
	mods  map[string]*moduleState
	execs map[string]*resilient.Executor

	met managerMetrics
}

type managerMetrics struct {
	probes      *telemetry.CounterVec
	transitions *telemetry.CounterVec
	sweeps      *telemetry.Counter
	states      *telemetry.GaugeVec
}

// NewManager builds a manager. Registry, Examples and Log are required.
// It restores each logged module's state from the log, so a restart
// neither re-admits quarantined modules nor probes retired ones.
func NewManager(cfg Config, deps Deps) (*Manager, error) {
	if deps.Registry == nil || deps.Examples == nil || deps.Log == nil {
		return nil, fmt.Errorf("lifecycle: Registry, Examples and Log are required")
	}
	clock := deps.Clock
	if clock == nil {
		clock = resilient.SystemClock{}
	}
	m := &Manager{
		cfg:     cfg.withDefaults(),
		reg:     deps.Registry,
		store:   deps.Examples,
		log:     deps.Log,
		queue:   deps.Queue,
		planner: deps.Planner,
		clock:   clock,
		mods:    map[string]*moduleState{},
		execs:   map[string]*resilient.Executor{},
	}
	if r := deps.Metrics; r != nil {
		m.met = managerMetrics{
			probes:      r.CounterVec("dexa_lifecycle_probes_total", "Module probes, by outcome.", "outcome"),
			transitions: r.CounterVec("dexa_lifecycle_transitions_total", "Lifecycle transitions, by destination state.", "to"),
			sweeps:      r.Counter("dexa_lifecycle_sweeps_total", "Probe sweeps executed."),
			states:      r.GaugeVec("dexa_lifecycle_modules", "Tracked modules, by lifecycle state.", "state"),
		}
	}
	m.restore()
	return m, nil
}

// restore folds the log's history into the schedule: every registered
// module the log mentions is tracked in the state its last event left
// it in, and modules out of the catalog (quarantined, probation,
// retired) flip unavailable through the registry, whose hook updates
// the derived views. Streak and backoff counters are not logged; they
// restart at zero.
func (m *Manager) restore() {
	events, _ := m.log.Since(0, 0)
	last := map[string]State{}
	for _, ev := range events {
		last[ev.Module] = ev.To
	}
	now := m.clock.Now()
	m.mu.Lock()
	var out []string
	for id, state := range last {
		if _, ok := m.reg.Get(id); !ok {
			continue
		}
		m.trackLocked(id, state, now)
		if state != StateHealthy && state != StateSuspect {
			out = append(out, id)
		}
	}
	m.updateStateGaugesLocked()
	m.mu.Unlock()
	sort.Strings(out)
	for _, id := range out {
		_ = m.reg.SetAvailable(id, false) // fails only for unknown IDs; each was found above
	}
}

// Log returns the transition log the manager appends to.
func (m *Manager) Log() *Log { return m.log }

// Now reads the manager's clock — the shared time source callers should
// stamp queue resolutions with, so everything stays deterministic under
// the fake clock.
func (m *Manager) Now() time.Time { return m.clock.Now() }

// Queue returns the repair queue (nil when repair is disabled).
func (m *Manager) Queue() *Queue { return m.queue }

// Track adds modules to the probe schedule, each starting healthy with a
// deterministic phase offset in [0, Interval) so a large catalog's first
// sweep does not hammer every provider at the same instant. Already
// tracked IDs, including those restored from the log, are ignored.
func (m *Manager) Track(ids ...string) {
	now := m.clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		if _, ok := m.mods[id]; !ok {
			m.trackLocked(id, StateHealthy, now)
		}
	}
	m.updateStateGaugesLocked()
}

// trackLocked schedules one module in the given state, at its phase
// offset; retired modules are never due. Callers hold m.mu.
func (m *Manager) trackLocked(id string, state State, now time.Time) {
	ms := &moduleState{id: id, state: state}
	if state != StateRetired {
		ms.nextDue = now.Add(time.Duration(m.unit(id, 0) * float64(m.cfg.Interval)))
	}
	m.mods[id] = ms
}

// TrackAll tracks every available registered module that has examples to
// probe against, and returns how many are now tracked.
func (m *Manager) TrackAll() int {
	var ids []string
	for _, id := range m.reg.IDs() {
		if _, available, ok := m.reg.Lookup(id); !ok || !available {
			continue
		}
		if set, _, ok := m.store.Get(id); ok && len(set) > 0 {
			ids = append(ids, id)
		} else if set, _ := m.reg.Examples(id); len(set) > 0 {
			ids = append(ids, id)
		}
	}
	m.Track(ids...)
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.mods)
}

// StateOf returns the lifecycle state of a tracked module.
func (m *Manager) StateOf(id string) (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.mods[id]
	if !ok {
		return 0, false
	}
	return ms.state, true
}

// ModuleStatus is one row of the lifecycle summary.
type ModuleStatus struct {
	Module      string       `json:"module"`
	State       State        `json:"state"`
	LastOutcome ProbeOutcome `json:"last_outcome"`
	LastProbed  time.Time    `json:"last_probed"`
	NextProbe   time.Time    `json:"next_probe"`
}

// Status returns the per-module lifecycle summary, sorted by module ID.
func (m *Manager) Status() []ModuleStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ModuleStatus, 0, len(m.mods))
	for _, ms := range m.mods {
		out = append(out, ModuleStatus{
			Module: ms.id, State: ms.state, LastOutcome: ms.lastOutcome,
			LastProbed: ms.lastProbed, NextProbe: ms.nextDue,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Module < out[j].Module })
	return out
}

// Counts returns how many tracked modules sit in each state.
func (m *Manager) Counts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int{}
	for _, ms := range m.mods {
		out[ms.state.String()]++
	}
	return out
}

// NextDue returns the earliest scheduled probe time; ok is false when
// nothing probeable is tracked.
func (m *Manager) NextDue() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var next time.Time
	found := false
	for _, ms := range m.mods {
		if ms.state == StateRetired {
			continue
		}
		if !found || ms.nextDue.Before(next) {
			next = ms.nextDue
			found = true
		}
	}
	return next, found
}

// dueIDs returns the modules due at or before now, sorted.
func (m *Manager) dueIDs(now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var due []string
	for id, ms := range m.mods {
		if ms.state == StateRetired {
			continue
		}
		if !ms.nextDue.After(now) {
			due = append(due, id)
		}
	}
	sort.Strings(due)
	return due
}

// RunDue probes every due module — concurrently up to Workers — and then
// applies the resulting transitions in sorted module order, so the event
// stream is deterministic regardless of probe interleaving. Results are
// returned in the same order.
func (m *Manager) RunDue(ctx context.Context) ([]ProbeResult, error) {
	ctx, span := telemetry.StartSpan(ctx, "lifecycle.sweep")
	defer span.End()
	due := m.dueIDs(m.clock.Now())
	span.Annotate("due", strconv.Itoa(len(due)))
	m.met.sweeps.Inc()
	if len(due) == 0 {
		return nil, nil
	}
	results := make([]ProbeResult, len(due))
	sem := make(chan struct{}, m.cfg.Workers)
	var wg sync.WaitGroup
	for i, id := range due {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = m.probeOne(ctx, id)
		}(i, id)
	}
	wg.Wait()
	// Transitions are applied after every probe returned, stamped with a
	// single post-sweep clock read: deterministic even under the fake
	// clock, whose Sleep-driven advances during retries depend on probe
	// interleaving only in total, not per module.
	now := m.clock.Now()
	for i := range results {
		if err := m.apply(ctx, results[i], now); err != nil {
			return results, err
		}
	}
	m.mu.Lock()
	m.updateStateGaugesLocked()
	m.mu.Unlock()
	return results, nil
}

// maxSleepSlice keeps Run responsive to cancellation under the system
// clock, whose Sleep cannot be interrupted.
const maxSleepSlice = 250 * time.Millisecond

// Run probes on schedule until ctx is cancelled. Under the fake clock
// tests drive RunDue directly instead; Run is the production loop.
func (m *Manager) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		now := m.clock.Now()
		next, ok := m.NextDue()
		if !ok {
			next = now.Add(m.cfg.Interval)
		}
		if next.After(now) {
			d := next.Sub(now)
			if d > maxSleepSlice {
				d = maxSleepSlice
			}
			m.clock.Sleep(d)
			continue
		}
		if _, err := m.RunDue(ctx); err != nil {
			return err
		}
	}
}

// executor returns the module's cached resilient wrapper. The wrapper
// holds the *module.Module itself as the inner executor, so rebinding
// (how the simulation scripts decay and recovery) is observed on the
// next probe without rebuilding the wrapper or its breaker history.
func (m *Manager) executor(mod *module.Module) module.Executor {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.execs[mod.ID]; ok {
		return e
	}
	pol := m.cfg.Policy
	if pol.Seed == 0 {
		pol.Seed = m.cfg.Seed
	}
	e := resilient.Wrap(mod.ID, mod, resilient.Options{Policy: pol, Clock: m.clock})
	m.execs[mod.ID] = e
	return e
}

// probeOne gathers evidence for one module.
func (m *Manager) probeOne(ctx context.Context, id string) ProbeResult {
	ctx, span := telemetry.StartSpan(ctx, "lifecycle.probe")
	span.Annotate("module", id)
	defer span.End()
	var res ProbeResult
	entry, ok := m.reg.Get(id)
	switch {
	case !ok:
		res = ProbeResult{Module: id, Outcome: ProbeDead, Err: "module deregistered"}
	case !entry.Module.Bound():
		res = ProbeResult{Module: id, Outcome: ProbeDead, Err: "no executor bound"}
	default:
		set, _, found := m.store.Get(id)
		if !found || len(set) == 0 {
			set = entry.Examples
		}
		res = probe(ctx, id, m.executor(entry.Module), set, m.cfg.MaxExamples)
	}
	span.Annotate("outcome", res.Outcome.String())
	m.met.probes.With(res.Outcome.String()).Inc()
	return res
}

// apply advances one module's state machine with the probe's evidence,
// performs the catalog side effects, and records the transition event.
func (m *Manager) apply(ctx context.Context, res ProbeResult, now time.Time) error {
	m.mu.Lock()
	ms, ok := m.mods[res.Module]
	if !ok || ms.state == StateRetired {
		m.mu.Unlock()
		return nil
	}
	ms.probes++
	ms.lastOutcome = res.Outcome
	ms.lastProbed = now
	if res.Outcome == ProbeSkipped {
		m.rescheduleLocked(ms, res.Outcome, now)
		m.mu.Unlock()
		return nil
	}
	from := ms.state
	to := from
	bad := res.Outcome == ProbeDrifted || res.Outcome == ProbeDead
	var reason string
	switch from {
	case StateHealthy:
		if bad {
			to, ms.badStreak, reason = StateSuspect, 1, badReason(res)
		} else {
			ms.badStreak = 0
		}
	case StateSuspect:
		if bad {
			ms.badStreak++
			if ms.badStreak >= m.cfg.QuarantineAfter {
				to = StateQuarantined
				reason = fmt.Sprintf("%d consecutive bad probes (%s)", ms.badStreak, badReason(res))
				ms.badStreak = 0
			}
		} else {
			to, ms.badStreak, reason = StateHealthy, 0, "probe agreed with stored examples"
		}
	case StateQuarantined:
		if bad {
			ms.badStreak++
			if ms.badStreak >= m.cfg.RetireAfter {
				to = StateRetired
				reason = fmt.Sprintf("still failing after quarantine (%s)", badReason(res))
			}
		} else {
			to, ms.goodStreak, ms.badStreak = StateProbation, 1, 0
			reason = "probe agreed; starting probation"
		}
	case StateProbation:
		if bad {
			to, ms.badStreak, ms.goodStreak = StateQuarantined, 1, 0
			reason = fmt.Sprintf("relapsed during probation (%s)", badReason(res))
		} else {
			ms.goodStreak++
			if ms.goodStreak >= m.cfg.Probation {
				to = StateHealthy
				reason = fmt.Sprintf("probation complete after %d healthy probes", ms.goodStreak)
				ms.goodStreak = 0
			}
		}
	}
	ms.state = to
	if to == StateRetired {
		ms.nextDue = time.Time{}
	} else {
		m.rescheduleLocked(ms, res.Outcome, now)
	}
	m.mu.Unlock()

	if to == from {
		return nil
	}
	// Catalog side effects, outside m.mu: the registry's availability
	// hook carries the flip to every derived view (match index, search
	// index, cached bodies) before the event below is appended, so /watch
	// readers see the views already updated.
	switch {
	case to == StateQuarantined || to == StateRetired:
		_ = m.reg.SetAvailable(res.Module, false)
	case to == StateHealthy && from == StateProbation:
		_ = m.reg.SetAvailable(res.Module, true)
	}
	if _, err := m.log.Append(Event{At: now, Module: res.Module, From: from, To: to, Probe: res.Outcome, Reason: reason}); err != nil {
		return err
	}
	m.met.transitions.With(to.String()).Inc()
	if to == StateRetired {
		return m.retire(ctx, res.Module, now)
	}
	return nil
}

// retire plans repair proposals for a freshly retired module and
// enqueues the ones not already pending.
func (m *Manager) retire(ctx context.Context, id string, now time.Time) error {
	if m.planner == nil || m.queue == nil {
		return nil
	}
	props, err := m.planner.Plan(ctx, id)
	if err != nil {
		return err
	}
	for _, p := range props {
		if m.queue.HasPending(p.Module, p.WorkflowID) {
			continue
		}
		p.EnqueuedAt = now
		if _, err := m.queue.Enqueue(p); err != nil {
			return err
		}
	}
	return nil
}

// badReason renders a short explanation of a bad probe.
func badReason(res ProbeResult) string {
	if res.Outcome == ProbeDead {
		return "provider unreachable: " + res.Err
	}
	return fmt.Sprintf("output drift: %d/%d examples agree", res.Agreeing, res.Compared)
}

// rescheduleLocked computes the module's next probe time: the base
// interval with deterministic ±Jitter spread, doubled per consecutive
// dead probe up to the backoff cap. Callers hold m.mu.
func (m *Manager) rescheduleLocked(ms *moduleState, outcome ProbeOutcome, now time.Time) {
	interval := m.cfg.Interval
	if outcome == ProbeDead {
		if ms.backoffShift < m.cfg.MaxBackoffShift {
			ms.backoffShift++
		}
		interval <<= ms.backoffShift
	} else {
		ms.backoffShift = 0
	}
	jit := (m.unit(ms.id, ms.probes)*2 - 1) * m.cfg.Jitter
	ms.nextDue = now.Add(time.Duration(float64(interval) * (1 + jit)))
}

// unit hashes (seed, id, n) into [0, 1) deterministically.
func (m *Manager) unit(id string, n uint64) float64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(m.cfg.Seed))
	h.Write(b[:])
	h.Write([]byte(id))
	binary.BigEndian.PutUint64(b[:], n)
	h.Write(b[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// updateStateGaugesLocked refreshes the per-state module gauges.
func (m *Manager) updateStateGaugesLocked() {
	if m.met.states == nil {
		return
	}
	counts := map[State]int{}
	for _, ms := range m.mods {
		counts[ms.state]++
	}
	for s := StateHealthy; s <= StateRetired; s++ {
		m.met.states.With(s.String()).Set(float64(counts[s]))
	}
}
