package lifecycle

import (
	"context"

	"dexa/internal/match"
	"dexa/internal/registry"
	"dexa/internal/telemetry"
	"dexa/internal/workflow"
)

// Planner turns a retirement into concrete repair proposals. It always
// produces a module-level proposal ranking behavioural substitutes from
// the stored annotation (§6's substitute search over persisted data
// examples), and — when a workflow repository is wired — one proposal per
// decayed workflow, computed by the same workflow.Repairer the offline
// repair pass uses, so the proposed replacements are byte-identical to
// the offline oracle for the same catalog state.
type Planner struct {
	// Comparer runs the substitute search; its Index (if any) must be the
	// live catalog index so pruning follows quarantine/retirement.
	Comparer *match.Comparer
	// Store supplies the retired module's persisted examples.
	Store match.StoredExamples
	// Registry supplies the retired module's signature and the candidates.
	Registry *registry.Registry
	// Repairer and Workflows enable workflow-level proposals; both may be
	// nil/empty when no repository is being tracked.
	Repairer  *workflow.Repairer
	Workflows []*workflow.Workflow
}

// maxSubstitutes caps the ranked candidates listed in the module-level
// proposal.
const maxSubstitutes = 5

// Plan computes the proposals for one retired module. The returned
// proposals are unstamped (no ID/state); the caller enqueues them.
func (p *Planner) Plan(ctx context.Context, moduleID string) ([]Proposal, error) {
	ctx, span := telemetry.StartSpan(ctx, "lifecycle.plan")
	span.Annotate("module", moduleID)
	defer span.End()

	var out []Proposal
	mod := p.modulePlan(ctx, moduleID)
	out = append(out, mod)

	if p.Repairer != nil {
		for _, w := range p.Workflows {
			if !referencesModule(w, moduleID) {
				continue
			}
			res, err := p.Repairer.Repair(w)
			if err != nil {
				span.Fail(err)
				return nil, err
			}
			if res.Status == workflow.NotBroken {
				continue
			}
			out = append(out, Proposal{
				Module:       moduleID,
				WorkflowID:   w.ID,
				Status:       res.Status.String(),
				Replacements: res.Replacements,
				Unrepairable: res.Unrepairable,
			})
		}
	}
	return out, nil
}

// modulePlan runs the stored-example substitute search for the module.
func (p *Planner) modulePlan(ctx context.Context, moduleID string) Proposal {
	prop := Proposal{Module: moduleID}
	entry, ok := p.Registry.Get(moduleID)
	if !ok {
		prop.Reason = "module not registered"
		return prop
	}
	subs, err := p.Comparer.FindSubstitutesStoredContext(ctx, p.Store, entry.Module, p.Registry.Available())
	if err != nil {
		// Typically: no stored examples survived from when the module was
		// alive — the §6 caveat that examples cannot be reconstructed after
		// the provider is gone.
		prop.Reason = err.Error()
		return prop
	}
	for _, c := range subs.Ranked {
		if len(prop.Substitutes) >= maxSubstitutes {
			break
		}
		prop.Substitutes = append(prop.Substitutes, SubstituteRef{
			ModuleID: c.Module.ID,
			Verdict:  c.Result.Verdict.String(),
		})
	}
	if len(prop.Substitutes) == 0 {
		prop.Reason = "no behaviourally compatible candidate"
	}
	return prop
}

func referencesModule(w *workflow.Workflow, moduleID string) bool {
	for _, s := range w.Steps {
		if s.ModuleID == moduleID {
			return true
		}
	}
	return false
}
