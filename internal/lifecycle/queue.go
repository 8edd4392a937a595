package lifecycle

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"dexa/internal/store"
	"dexa/internal/telemetry"
	"dexa/internal/workflow"
)

// ProposalState is the approval status of a queued repair proposal.
type ProposalState string

const (
	ProposalPending  ProposalState = "pending"
	ProposalApproved ProposalState = "approved"
	ProposalRejected ProposalState = "rejected"
)

// SubstituteRef names one ranked substitute candidate for a retired
// module, with the behavioural verdict that ranked it.
type SubstituteRef struct {
	ModuleID string `json:"module_id"`
	Verdict  string `json:"verdict"`
}

// Proposal is one human-approvable repair suggestion produced when a
// module is retired. Module-level proposals (WorkflowID == "") carry the
// ranked substitutes from the stored-example search; workflow-level
// proposals carry the concrete step replacements computed by
// workflow.Repair, byte-identical to what the offline repair pass would
// produce for the same catalog state.
type Proposal struct {
	ID     string `json:"id"`
	Module string `json:"module"`
	// WorkflowID identifies the decayed workflow this proposal rewrites;
	// empty for the module-level substitute summary.
	WorkflowID string `json:"workflow_id,omitempty"`
	// Status is the workflow.RepairStatus name for workflow proposals.
	Status       string                 `json:"status,omitempty"`
	Replacements []workflow.Replacement `json:"replacements,omitempty"`
	Unrepairable map[string]string      `json:"unrepairable,omitempty"`
	Substitutes  []SubstituteRef        `json:"substitutes,omitempty"`
	// Reason notes why a proposal is empty (e.g. no stored examples).
	Reason     string        `json:"reason,omitempty"`
	State      ProposalState `json:"state"`
	EnqueuedAt time.Time     `json:"enqueued_at"`
	ResolvedAt *time.Time    `json:"resolved_at,omitempty"`
}

// queueRecord is one journaled queue mutation.
type queueRecord struct {
	Op       string        `json:"op"` // "enqueue" | "resolve"
	Proposal *Proposal     `json:"proposal,omitempty"`
	ID       string        `json:"id,omitempty"`
	State    ProposalState `json:"state,omitempty"`
	At       time.Time     `json:"at,omitempty"`
}

// Queue is the durable repair-proposal queue. Every mutation is journaled
// before it is visible, so replaying the journal after a crash rebuilds
// the exact queue state, pending approvals included.
type Queue struct {
	mu    sync.Mutex
	j     *store.Journal
	byID  map[string]*Proposal
	order []string
	seq   int

	enqueued *telemetry.Counter
	resolved *telemetry.CounterVec
}

// OpenQueue opens (or creates) the repair queue at path, replaying any
// journaled history. An empty path yields a memory-only queue.
func OpenQueue(path string) (*Queue, error) {
	q := &Queue{byID: map[string]*Proposal{}}
	j, err := store.OpenJournal(path, func(payload []byte) error {
		var rec queueRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		return q.apply(rec)
	})
	if err != nil {
		return nil, err
	}
	q.j = j
	return q, nil
}

// apply replays one journaled mutation into the in-memory state.
func (q *Queue) apply(rec queueRecord) error {
	switch rec.Op {
	case "enqueue":
		if rec.Proposal == nil {
			return fmt.Errorf("lifecycle: enqueue record without proposal")
		}
		p := *rec.Proposal
		if _, dup := q.byID[p.ID]; dup {
			return fmt.Errorf("lifecycle: duplicate proposal %s in journal", p.ID)
		}
		q.byID[p.ID] = &p
		q.order = append(q.order, p.ID)
		var n int
		if _, err := fmt.Sscanf(p.ID, "rq-%d", &n); err == nil && n > q.seq {
			q.seq = n
		}
	case "resolve":
		p, ok := q.byID[rec.ID]
		if !ok {
			return fmt.Errorf("lifecycle: resolve record for unknown proposal %s", rec.ID)
		}
		p.State = rec.State
		at := rec.At
		p.ResolvedAt = &at
	default:
		return fmt.Errorf("lifecycle: unknown queue op %q", rec.Op)
	}
	return nil
}

// Enqueue assigns the next proposal ID, marks the proposal pending, and
// journals it. The stamped proposal is returned.
func (q *Queue) Enqueue(p Proposal) (Proposal, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	p.ID = fmt.Sprintf("rq-%06d", q.seq)
	p.State = ProposalPending
	if err := q.j.Append(queueRecord{Op: "enqueue", Proposal: &p}); err != nil {
		q.seq--
		return Proposal{}, err
	}
	cp := p
	q.byID[p.ID] = &cp
	q.order = append(q.order, p.ID)
	if q.enqueued != nil {
		q.enqueued.Inc()
	}
	return p, nil
}

// Resolve approves or rejects a pending proposal at the given time.
func (q *Queue) Resolve(id string, approve bool, at time.Time) (Proposal, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p, ok := q.byID[id]
	if !ok {
		return Proposal{}, fmt.Errorf("lifecycle: unknown proposal %q", id)
	}
	if p.State != ProposalPending {
		return Proposal{}, fmt.Errorf("lifecycle: proposal %s already %s", id, p.State)
	}
	state := ProposalRejected
	if approve {
		state = ProposalApproved
	}
	if err := q.j.Append(queueRecord{Op: "resolve", ID: id, State: state, At: at}); err != nil {
		return Proposal{}, err
	}
	p.State = state
	p.ResolvedAt = &at
	if q.resolved != nil {
		q.resolved.With(string(state)).Inc()
	}
	return *p, nil
}

// List returns proposals in enqueue order; state filters when non-empty.
func (q *Queue) List(state ProposalState) []Proposal {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Proposal, 0, len(q.order))
	for _, id := range q.order {
		p := q.byID[id]
		if state != "" && p.State != state {
			continue
		}
		out = append(out, *p)
	}
	return out
}

// HasPending reports whether a pending proposal already covers the given
// (module, workflow) pair — the dedup guard against re-proposing the same
// repair when several modules of one workflow retire in sequence.
func (q *Queue) HasPending(moduleID, workflowID string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range q.order {
		p := q.byID[id]
		if p.State == ProposalPending && p.Module == moduleID && p.WorkflowID == workflowID {
			return true
		}
	}
	return false
}

// Pending returns the number of proposals awaiting a decision.
func (q *Queue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, p := range q.byID {
		if p.State == ProposalPending {
			n++
		}
	}
	return n
}

// Instrument exports queue metrics into the registry.
func (q *Queue) Instrument(r *telemetry.Registry) {
	if r == nil {
		return
	}
	q.mu.Lock()
	q.enqueued = r.Counter("dexa_repair_proposals_enqueued_total", "Repair proposals enqueued by module retirement.")
	q.resolved = r.CounterVec("dexa_repair_proposals_resolved_total", "Repair proposals resolved, by decision.", "state")
	q.mu.Unlock()
	r.GaugeFunc("dexa_repair_proposals_pending", "Repair proposals awaiting a decision.", func() float64 {
		return float64(q.Pending())
	})
}

// Flush forces journaled mutations to stable storage.
func (q *Queue) Flush() error { return q.j.Sync() }

// Close flushes and closes the backing journal.
func (q *Queue) Close() error { return q.j.Close() }
