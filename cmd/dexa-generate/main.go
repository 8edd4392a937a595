// Command dexa-generate annotates modules of the simulation universe with
// data examples and prints or stores them.
//
// Usage:
//
//	dexa-generate -module getUniprotRecord        # print examples for one module
//	dexa-generate -all -o registry.json           # annotate all 252, save registry
//	dexa-generate -module sequenceToFasta -report # include the generation report
//	dexa-generate -all -store ./dexa-store        # warm the persistent example store
//
// With -store the generator is wired through the persistent example
// store: modules whose annotation is already stored are served from it
// (no regeneration), fresh results are appended to the store's WAL, and
// the store is flushed and compacted before exit. A warmed store is what
// dexa-serve's annotation API serves from.
//
// Chaos mode injects seeded transient faults into every invocation, and
// -resilient interposes the production executor stack (retry with
// backoff + jitter, per-module circuit breaker) between the generator
// and the faulty modules:
//
//	dexa-generate -module getUniprotRecord -chaos 0.3 -report            # naive under faults
//	dexa-generate -module getUniprotRecord -chaos 0.3 -resilient -report # recovered
//
// -metrics FILE (or "-" for stderr) dumps the run's metrics — store WAL
// activity, sweep worker-pool counters, resilience/breaker counters,
// cache hit rates — as Prometheus text exposition when the run finishes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dexa/internal/core"
	"dexa/internal/faults"
	"dexa/internal/module"
	"dexa/internal/resilient"
	"dexa/internal/serve"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

func main() {
	moduleID := flag.String("module", "", "module ID to annotate")
	all := flag.Bool("all", false, "annotate every catalog module")
	out := flag.String("o", "", "write the annotated registry as JSON to this file")
	report := flag.Bool("report", false, "print the generation report")
	chaos := flag.Float64("chaos", 0, "inject this transient-fault rate into every invocation")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the deterministic fault stream")
	useResilient := flag.Bool("resilient", false, "invoke through the resilient executor stack (retry/backoff/breaker)")
	maxAttempts := flag.Int("max-attempts", 0, "resilient stack: attempts per invocation (default policy when 0)")
	workers := flag.Int("workers", 0, "concurrent generations for -all (0 = GOMAXPROCS); results are deterministic, but with -chaos the fault placement follows goroutine scheduling at widths > 1")
	storeDir := flag.String("store", "", "persist annotations to (and reuse them from) this example-store directory")
	metricsOut := flag.String("metrics", "", "dump the run's metrics as Prometheus text exposition to this file on exit (\"-\" for stderr)")
	flag.Parse()

	if *moduleID == "" && !*all {
		fmt.Fprintln(os.Stderr, "usage: dexa-generate -module <id> | -all [-o registry.json]")
		os.Exit(2)
	}

	var metrics *telemetry.Registry
	if *metricsOut != "" {
		metrics = telemetry.NewRegistry()
	}

	fmt.Fprintln(os.Stderr, "building experimental universe...")
	u := simulation.NewUniverse()
	serve.InstrumentOntology(metrics, u.Ont)

	if *chaos > 0 {
		profile := faults.Uniform(*chaos)
		if err := profile.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		inj := faults.NewInjector(*chaosSeed, faults.Plan{Default: profile})
		for _, e := range u.Catalog.Entries {
			m := e.Module
			m.Bind(faults.Wrap(m.ID, m.Executor(), inj))
		}
		fmt.Fprintf(os.Stderr, "chaos enabled: %.0f%% transient faults, seed %d\n", 100*profile.TransientRate(), *chaosSeed)
	}
	if *useResilient {
		opts := resilient.Options{
			Policy:  resilient.Policy{MaxAttempts: *maxAttempts, Seed: *chaosSeed},
			Metrics: metrics,
		}
		for _, e := range u.Catalog.Entries {
			m := e.Module
			m.Bind(resilient.Wrap(m.ID, m.Executor(), opts))
		}
		fmt.Fprintln(os.Stderr, "resilient executor stack enabled")
	}

	var st *store.Store
	var source *store.Source
	var gen core.ExampleGenerator = u.Gen
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{CompactEvery: 256, Metrics: metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "store %s: %d modules already annotated\n", *storeDir, stats.Modules)
		source = store.NewSource(st, u.Gen)
		serve.InstrumentSource(metrics, source)
		gen = source
	}

	if *all {
		mods := make([]*module.Module, len(u.Catalog.Entries))
		for i, e := range u.Catalog.Entries {
			mods[i] = e.Module
		}
		sweep := &core.SweepGenerator{Gen: gen, Workers: *workers, Metrics: metrics}
		for _, r := range sweep.Sweep(mods) {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "generating for %s: %v\n", r.ModuleID, r.Err)
				os.Exit(1)
			}
			if err := u.Registry.SetExamples(r.ModuleID, r.Examples); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "annotated %d modules\n", len(mods))
	} else {
		id := *moduleID
		entry, ok := u.Catalog.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown module %q\n", id)
			os.Exit(1)
		}
		set, rep, err := gen.Generate(entry.Module)
		if err != nil {
			fmt.Fprintf(os.Stderr, "generating for %s: %v\n", id, err)
			os.Exit(1)
		}
		if err := u.Registry.SetExamples(id, set); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("module %s (%s, %s): %d data examples\n", id, entry.Module.Kind, entry.Module.Form, len(set))
		for i, e := range set {
			fmt.Printf("  δ%d %s\n", i+1, e)
		}
		if rep == nil && *report {
			fmt.Println("served from the example store; no generation report (use the serve API's refresh to regenerate)")
		}
		if *report && rep != nil {
			fmt.Printf("input coverage: %.2f   output coverage: %.2f   combined: %.2f\n",
				rep.InputCoverage(), rep.OutputCoverage(), rep.Coverage())
			fmt.Printf("combinations: %d total, %d failed, %d truncated\n",
				rep.TotalCombinations, rep.FailedCombinations, rep.Truncated)
			if rep.TransientRetries > 0 || rep.TransientFailures > 0 {
				fmt.Printf("transient faults: %d retried, %d combinations lost to persistent faults\n",
					rep.TransientRetries, rep.TransientFailures)
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := u.Registry.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "registry written to %s\n", *out)
	}
	if st != nil {
		if err := st.Snapshot(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "store %s: %d modules, %d examples (%d generated this run, rest served from the store)\n",
			*storeDir, stats.Modules, stats.Examples, source.Runs())
	}
	if metrics != nil {
		var w io.Writer = os.Stderr
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := metrics.WritePrometheus(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
