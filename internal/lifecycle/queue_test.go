package lifecycle

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dexa/internal/workflow"
)

func sampleProposal(moduleID, workflowID string) Proposal {
	p := Proposal{
		Module:     moduleID,
		WorkflowID: workflowID,
		EnqueuedAt: time.Date(2014, 3, 24, 9, 0, 0, 0, time.UTC),
	}
	if workflowID != "" {
		p.Status = workflow.FullyRepaired.String()
		p.Replacements = []workflow.Replacement{{
			StepID: "s0", OldModuleID: moduleID, NewModuleID: moduleID + "-mirror",
		}}
	} else {
		p.Substitutes = []SubstituteRef{{ModuleID: moduleID + "-mirror", Verdict: "Equivalent"}}
	}
	return p
}

func TestQueueEnqueueResolveList(t *testing.T) {
	q, err := OpenQueue("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	p1, err := q.Enqueue(sampleProposal("alpha", ""))
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID != "rq-000001" || p1.State != ProposalPending {
		t.Fatalf("first proposal stamped %+v", p1)
	}
	p2, _ := q.Enqueue(sampleProposal("alpha", "wf-1"))
	p3, _ := q.Enqueue(sampleProposal("beta", ""))

	if !q.HasPending("alpha", "wf-1") || q.HasPending("alpha", "wf-2") {
		t.Fatal("HasPending does not key on (module, workflow)")
	}
	at := time.Date(2014, 3, 25, 10, 0, 0, 0, time.UTC)
	if p, err := q.Resolve(p2.ID, true, at); err != nil || p.State != ProposalApproved || p.ResolvedAt == nil {
		t.Fatalf("approve = %+v, %v", p, err)
	}
	if q.HasPending("alpha", "wf-1") {
		t.Fatal("resolved proposal still counts as pending")
	}
	if _, err := q.Resolve(p3.ID, false, at); err != nil {
		t.Fatal(err)
	}
	if q.Pending() != 1 || len(q.order) != 3 {
		t.Fatalf("pending %d / len %d, want 1 / 3", q.Pending(), len(q.order))
	}
	if got := q.List(ProposalRejected); len(got) != 1 || got[0].ID != p3.ID {
		t.Fatalf("List(rejected) = %+v", got)
	}
	if got := q.List(""); len(got) != 3 || got[0].ID != p1.ID || got[2].ID != p3.ID {
		t.Fatalf("List() lost enqueue order: %+v", got)
	}

	// Error paths: unknown ID, double resolution.
	if _, err := q.Resolve("rq-999999", true, at); err == nil {
		t.Fatal("resolved an unknown proposal")
	}
	if _, err := q.Resolve(p2.ID, false, at); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("double resolve error = %v", err)
	}
}

// TestQueueCrashRecovery is the durability contract: replaying the
// journal after a restart rebuilds byte-identical queue state, and fresh
// enqueues continue the ID sequence instead of reusing it.
func TestQueueCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repair-queue.log")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	q.Enqueue(sampleProposal("alpha", ""))
	p2, _ := q.Enqueue(sampleProposal("alpha", "wf-1"))
	q.Enqueue(sampleProposal("beta", ""))
	at := time.Date(2014, 3, 25, 10, 0, 0, 0, time.UTC)
	if _, err := q.Resolve(p2.ID, true, at); err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(q.List(""))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	after, err := json.Marshal(q2.List(""))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("replayed queue diverged:\n%s\n---\n%s", before, after)
	}
	if q2.Pending() != 2 {
		t.Fatalf("replayed pending = %d, want 2", q2.Pending())
	}
	p4, err := q2.Enqueue(sampleProposal("gamma", ""))
	if err != nil {
		t.Fatal(err)
	}
	if p4.ID != "rq-000004" {
		t.Fatalf("post-replay ID = %s, want rq-000004", p4.ID)
	}
}
