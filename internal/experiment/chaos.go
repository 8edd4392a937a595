package experiment

import (
	"fmt"
	"net/http/httptest"

	"dexa/internal/core"
	"dexa/internal/faults"
	"dexa/internal/module"
	"dexa/internal/resilient"
	"dexa/internal/simulation"
	"dexa/internal/transport"
)

// ChaosConfig parameterises the fault-injection experiment.
type ChaosConfig struct {
	// Seed drives every random stream (fault injection, retry jitter).
	Seed int64
	// Profile is the fault mix applied to every served request.
	Profile faults.Profile
	// PerForm is how many REST and how many SOAP catalog modules are put
	// behind the chaotic transports.
	PerForm int
	// MaxAttempts is the resilient stack's per-call attempt budget.
	MaxAttempts int
}

// DefaultChaosConfig is the configuration RunChaos uses: a quarter of all
// transport calls fail somehow, spread over every fault shape.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Seed:        20140324, // EDBT 2014
		Profile:     faults.Uniform(0.25),
		PerForm:     4,
		MaxAttempts: 6,
	}
}

// ChaosOutcome aggregates the three generation sweeps of the experiment.
type ChaosOutcome struct {
	Modules int

	// Classes are the partition classes (input and output, "param/concept")
	// covered by each sweep, summed over modules; Examples the data
	// examples constructed.
	BaselineClasses, NaiveClasses, ResilientClasses    int
	BaselineExamples, NaiveExamples, ResilientExamples int

	// NaiveLost / ResilientLost count baseline classes the respective sweep
	// failed to cover.
	NaiveLost, ResilientLost int

	// NaiveInjected / NaiveCalls and ResilientInjected / ResilientCalls
	// report each chaotic sweep's fault pressure.
	NaiveInjected, NaiveCalls         int
	ResilientInjected, ResilientCalls int

	// Retries / Recovered / BreakerOpens describe the resilient stack's
	// work: transport-level retries, calls that recovered after at least
	// one transient fault, and circuit-breaker openings.
	Retries, Recovered, BreakerOpens int
}

// coveredClasses flattens a generation report into the set of covered
// partition classes.
func coveredClasses(rep *core.Report) map[string]bool {
	out := map[string]bool{}
	for param, concepts := range rep.CoveredInput {
		for _, c := range concepts {
			out["in:"+param+"/"+c] = true
		}
	}
	for param, concepts := range rep.CoveredOutput {
		for _, c := range concepts {
			out["out:"+param+"/"+c] = true
		}
	}
	return out
}

// detached clones a module's signature without its executor, so the clone
// can be bound to a remote transport while the original keeps its
// in-process implementation.
func detached(m *module.Module) *module.Module {
	c := *m
	c.Bind(nil)
	return &c
}

// chaosModules picks the first PerForm REST and SOAP modules of the
// catalog, in ID order.
func chaosModules(u *simulation.Universe, perForm int) []*module.Module {
	var rest, soap []*module.Module
	for _, m := range u.Registry.Modules() {
		switch m.Form {
		case module.FormREST:
			if len(rest) < perForm {
				rest = append(rest, m)
			}
		case module.FormSOAP:
			if len(soap) < perForm {
				soap = append(soap, m)
			}
		}
	}
	return append(rest, soap...)
}

// RunChaosExperiment measures example-generation completeness with faults
// on vs. off, with and without the resilient executor stack. The selected
// catalog modules are served over real REST and SOAP transports wrapped
// in the fault-injection middleware; generation runs against
// signature-only proxies bound to those transports, exactly like a client
// annotating third-party services. All sleeps (backoff, cool-down) go
// through a fake clock, so the experiment runs at full speed.
func RunChaosExperiment(u *simulation.Universe, cfg ChaosConfig) (*ChaosOutcome, error) {
	if cfg.PerForm <= 0 {
		cfg.PerForm = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	mods := chaosModules(u, cfg.PerForm)
	if len(mods) == 0 {
		return nil, fmt.Errorf("experiment: catalog has no remote-form modules")
	}
	out := &ChaosOutcome{Modules: len(mods)}

	// Baseline: the in-process modules, no network, no faults.
	baseGen := core.NewGenerator(u.Ont, u.Pool)
	baseline := make(map[string]map[string]bool, len(mods))
	for _, m := range mods {
		_, rep, err := baseGen.Generate(m)
		if err != nil {
			return nil, fmt.Errorf("experiment: baseline generation for %s: %w", m.ID, err)
		}
		classes := coveredClasses(rep)
		baseline[m.ID] = classes
		out.BaselineClasses += len(classes)
		out.BaselineExamples += rep.Examples
	}

	// sweep serves the modules behind chaotic REST/SOAP transports and
	// generates through bind, returning per-module covered classes.
	sweep := func(gen *core.Generator, bind func(m *module.Module, restURL, soapURL string), inj *faults.Injector) (map[string]map[string]bool, int, error) {
		restSrv := httptest.NewServer(faults.Middleware(transport.RESTHandler(u.Registry), inj))
		defer restSrv.Close()
		soapSrv := httptest.NewServer(faults.Middleware(transport.SOAPHandler(u.Registry), inj))
		defer soapSrv.Close()
		covered := make(map[string]map[string]bool, len(mods))
		examples := 0
		for _, m := range mods {
			proxy := detached(m)
			bind(proxy, restSrv.URL, soapSrv.URL)
			_, rep, err := gen.Generate(proxy)
			if err != nil {
				return nil, 0, fmt.Errorf("experiment: chaotic generation for %s: %w", m.ID, err)
			}
			covered[m.ID] = coveredClasses(rep)
			examples += rep.Examples
		}
		return covered, examples, nil
	}

	// Naive sweep: plain transport executors, no retries anywhere — the
	// pre-resilience behaviour, where every fault costs the combination.
	naiveInj := faults.NewInjector(cfg.Seed, faults.Plan{Default: cfg.Profile})
	naiveGen := core.NewGenerator(u.Ont, u.Pool)
	naiveGen.TransientRetries = core.Retries(0)
	naiveCovered, naiveExamples, err := sweep(naiveGen, func(m *module.Module, restURL, soapURL string) {
		transport.BindRemote(m, restURL, soapURL, nil)
	}, naiveInj)
	if err != nil {
		return nil, err
	}
	out.NaiveExamples = naiveExamples
	out.NaiveInjected, out.NaiveCalls = naiveInj.Injected(), naiveInj.Total()

	// Resilient sweep: same fault pressure, but the proxies are bound
	// through the resilient wrapper (timeout + retry + breaker) and the
	// generator keeps its transient-retry budget.
	resInj := faults.NewInjector(cfg.Seed, faults.Plan{Default: cfg.Profile})
	clock := resilient.NewFakeClock()
	var wrapped []*resilient.Executor
	resGen := core.NewGenerator(u.Ont, u.Pool)
	resCovered, resExamples, err := sweep(resGen, func(m *module.Module, restURL, soapURL string) {
		var inner module.Executor
		if m.Form == module.FormSOAP {
			inner = &transport.SOAPExecutor{Endpoint: soapURL, ModuleID: m.ID}
		} else {
			inner = &transport.RESTExecutor{BaseURL: restURL, ModuleID: m.ID}
		}
		ex := resilient.Wrap(m.ID, inner, resilient.Options{
			Policy: resilient.Policy{MaxAttempts: cfg.MaxAttempts, Seed: cfg.Seed},
			Clock:  clock,
		})
		wrapped = append(wrapped, ex)
		m.Bind(ex)
	}, resInj)
	if err != nil {
		return nil, err
	}
	out.ResilientExamples = resExamples
	out.ResilientInjected, out.ResilientCalls = resInj.Injected(), resInj.Total()
	for _, ex := range wrapped {
		out.Retries += int(ex.Stats.Retries.Load())
		out.Recovered += int(ex.Stats.Recovered.Load())
		out.BreakerOpens += ex.Breaker().Opens()
	}

	for id, base := range baseline {
		for class := range base {
			if !naiveCovered[id][class] {
				out.NaiveLost++
			}
			if !resCovered[id][class] {
				out.ResilientLost++
			}
		}
		out.NaiveClasses += len(naiveCovered[id])
		out.ResilientClasses += len(resCovered[id])
	}
	return out, nil
}

// RunChaos is the suite entry point: it runs the default chaos
// configuration and renders the completeness comparison.
func (s *Suite) RunChaos() Result {
	cfg := DefaultChaosConfig()
	out, err := RunChaosExperiment(s.U, cfg)
	if err != nil {
		return Result{ID: "chaos", Title: "Fault injection vs. resilient executor stack",
			Notes: []string{"failed: " + err.Error()}}
	}
	pct := func(injected, total int) string {
		if total == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(injected)/float64(total))
	}
	res := Result{
		ID:    "chaos",
		Title: "Fault injection vs. resilient executor stack (generation completeness)",
		Rows: []Row{
			{Label: "modules behind chaotic transports", Paper: "n/a", Measured: fmt.Sprintf("%d", out.Modules)},
			{Label: "injected transient fault share (naive sweep)", Paper: ">=20%", Measured: pct(out.NaiveInjected, out.NaiveCalls)},
			{Label: "partition classes, fault-free baseline", Paper: "n/a", Measured: fmt.Sprintf("%d", out.BaselineClasses)},
			{Label: "classes lost by naive executors", Paper: ">0 (decay corrupts)", Measured: fmt.Sprintf("%d", out.NaiveLost)},
			{Label: "classes lost by resilient stack", Paper: "0 (full recovery)", Measured: fmt.Sprintf("%d", out.ResilientLost)},
			{Label: "data examples: baseline / naive / resilient", Paper: "n/a",
				Measured: fmt.Sprintf("%d / %d / %d", out.BaselineExamples, out.NaiveExamples, out.ResilientExamples)},
			{Label: "transport retries spent by resilient stack", Paper: "n/a", Measured: fmt.Sprintf("%d", out.Retries)},
			{Label: "calls recovered after >=1 transient fault", Paper: "n/a", Measured: fmt.Sprintf("%d", out.Recovered)},
		},
		Notes: []string{
			fmt.Sprintf("profile: uniform %.0f%% transient faults (reset/429/503/truncate/garbage), seed %d",
				100*cfg.Profile.TransientRate(), cfg.Seed),
			"all backoff sleeps run on a fake clock; the experiment performs no real waiting",
		},
	}
	if out.BreakerOpens > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("circuit breakers opened %d time(s) during the resilient sweep", out.BreakerOpens))
	}
	return res
}
