// Command e2ebench is dexa's end-to-end benchmark. It boots dexa
// in-process behind real loopback listeners — a single node, a leader with
// a replicating follower, or a three-shard cluster — drives one workload's
// fixed, seed-derived request sequence at it, checks every answer, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// breakdown) as one JSON object on the last line of standard output.
//
// Run it from the root of a dexa checkout through the wrapper, which
// builds it first:
//
//	bash e2ebench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload churn --seed 1 --seconds 20 --trace 1
//	bash e2ebench/run.sh --workload plan --seconds 20 --spread 10
//
// The workloads, their metrics and what each per-layer number should move
// are described in WORKLOADS.md next to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Topologies.
const (
	topoSingle         = "single"
	topoLeaderFollower = "leader+follower"
	topoShards         = "3 shards"
)

// workload is one traffic mix over one topology. readRate calibrates the
// request budget: a run issues seconds × readRate reader requests (the
// run is bounded by that count, not by time), chosen so that a run takes
// about --seconds on a two-core host.
type workload struct {
	name      string
	topology  string
	conns     int     // closed-loop reader connections
	readRate  float64 // reader requests per second of --seconds
	writeRate float64 // churn: the writer's fixed rate, writes per second
	mix       []weighted
}

// The mixes start from dexa-load's default mix (examples 6, search 3,
// substitutes 2, matches 1, catalog 1, stats 1, compose 1), keep the kinds
// a workload covers, and split a kind only where the workload needs finer
// request shapes. WORKLOADS.md gives the source of every weight.
var workloads = []*workload{
	{
		name: "lookup", topology: topoSingle, conns: 2, readRate: 9300,
		mix: []weighted{
			{"examples", 4}, {"module", 2}, {"search.keyword", 1}, {"search.concept", 1},
			{"search.behaves", 1}, {"substitutes", 2}, {"catalog", 1}, {"matches", 1},
		},
	},
	{
		name: "plan", topology: topoSingle, conns: 2, readRate: 2400,
		mix: []weighted{{"compose", 2}, {"compose.like", 1}, {"compose.use", 1}},
	},
	{
		name: "churn", topology: topoLeaderFollower, conns: 1, readRate: 690, writeRate: 400,
		mix: []weighted{{"matches", 1}, {"substitutes", 2}, {"search.behaves", 3}, {"generate", 2}},
	},
	{
		name: "scatter", topology: topoShards, conns: 2, readRate: 3400,
		mix: []weighted{{"examples", 12}, {"search.keyword", 4}, {"search.behaves", 2}, {"substitutes", 4}, {"matches", 1}},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	w        *workload
	seed     int64
	seconds  int
	requests int    // reader request budget; 0 derives it from seconds
	setups   int    // set-ups per run: setup_s is their median, the last one is measured
	scratch  string // on-disk stores and trace files
}

func (o options) budget() int {
	if o.requests > 0 {
		return o.requests
	}
	return int(float64(o.seconds) * o.w.readRate)
}

func main() {
	name := flag.String("workload", "", "workload: lookup, plan, churn or scatter")
	seed := flag.Int64("seed", 1, "seed the request sequence and write schedule derive from")
	seconds := flag.Int("seconds", 10, "nominal run length; the request budget is seconds × the workload's calibrated rate")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	spread := flag.Int("spread", 0, "run the workload this many times, seeds seed..seed+N-1, and report each end-to-end metric's median and quartiles")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("need -seconds >= 1 and -trace 0 or 1"))
	}
	scratch, err := filepath.Abs(".bench_build")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}
	opts := options{w: w, seed: *seed, seconds: *seconds, setups: defaultSetups, scratch: scratch}

	if *spread > 0 {
		if err := spreadReport(os.Stdout, opts, *spread); err != nil {
			fatal(err)
		}
		return
	}

	var res *result
	if *trace == 1 {
		res, err = runTraced(os.Stdout, opts)
	} else {
		res, err = runMeasured(os.Stdout, opts)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

// setUp boots the workload's topology opts.setups times, timing each
// boot, seed and warm-up until the system is ready for its first timed
// request; all but the last are torn down again. It returns the last
// topology and the median set-up time.
func setUp(opts options, ck *checker, wrap wrapFunc) (*topology, float64, error) {
	var times []float64
	var top *topology
	for i := 0; i < opts.setups; i++ {
		if top != nil {
			top.close()
		}
		t0 := time.Now()
		var err error
		if top, err = boot(opts.w, opts.scratch, wrap); err != nil {
			return nil, 0, err
		}
		if top.follower != nil && !top.follower.waitFor(top.nodes[0].st.Seq(), 30*time.Second) {
			top.close()
			return nil, 0, errors.New("follower did not catch up with the seeded leader")
		}
		if err := ck.warmUp(top); err != nil {
			top.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return top, median(times), nil
}

// runMeasured is the untraced run: set up, replay the request sequence
// (and, for churn, the write schedule), check, and report the end-to-end
// metrics. heap_mb is read once the benchmark's own inputs, answers and
// samples are out of scope, so it measures dexa's heap, not the harness's.
func runMeasured(out io.Writer, opts options) (*result, error) {
	top, res, err := measure(out, opts)
	if err != nil {
		return nil, err
	}
	defer top.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB"}
	printMetrics(out, res.Metrics)
	return res, nil
}

// measure sets up, runs the timed phase and the final checks, and returns
// the topology, still running, with every metric but heap_mb.
func measure(out io.Writer, opts options) (*topology, *result, error) {
	cat, err := buildCatalog()
	if err != nil {
		return nil, nil, err
	}
	p, err := makePlan(opts.w, cat, opts.seed, opts.budget())
	if err != nil {
		return nil, nil, err
	}
	ck := newChecker(opts.w, cat, p)
	top, setupS, err := setUp(opts, ck, nil)
	if err != nil {
		return nil, nil, err
	}
	ph := runPhase(opts.w, top, ck, p)
	finalErr := ck.finalChecks(top, ph.writes)

	res := &result{
		Attempted: len(p.requests) + ph.writes,
		Metrics:   map[string]metric{},
	}
	res.Failed = ph.readerFailures() + ph.writes - ph.writeOK
	res.Correct = res.Failed == 0 && finalErr == nil
	lat := append([]float64(nil), ph.lat...)
	res.Metrics["setup_s"] = metric{setupS, "s"}
	// Throughput, median and p99 latency are medians over ten equal
	// windows of the reader phase, so a burst of host noise that covers a
	// window or two does not move them.
	rates, p50s, p99s, tail := ph.windows(windowCount)
	res.Metrics["throughput_rps"] = metric{median(rates), "1/s"}
	res.Metrics["p50_ms"] = metric{median(p50s), "ms"}
	res.Metrics["p99_ms"] = metric{median(p99s), "ms"}
	res.Metrics["success_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}

	fmt.Fprintf(out, "workload %s (%s, %d closed-loop connection(s)), seed %d: %d reader requests in %.2fs, at least %d samples above p99 in every window\n",
		opts.w.name, opts.w.topology, opts.w.conns, opts.seed, len(p.requests), ph.elapsed.Seconds(), tail)
	fmt.Fprintf(out, "per window: throughput 1/s %.0f, p50 ms %.3f, p99 ms %.3f\n", rates, p50s, p99s)
	fmt.Fprintf(out, "whole run, latency ms: p90 %.3f, p95 %.3f, p99 %.3f, p99.9 %.3f, max %.3f\n",
		percentile(lat, 0.90), percentile(lat, 0.95), percentile(lat, 0.99), percentile(lat, 0.999), percentile(lat, 1))
	if tail < 10 {
		fmt.Fprintf(out, "warning: a window has only %d samples above its p99; raise the budget\n", tail)
	}
	if len(p.writes) > 0 {
		// The churn writer's own numbers; the JSON line carries only the
		// metrics every workload reports.
		fmt.Fprintf(out, "writer: %d writes at %.0f/s, write_p50_ms %.4f, freshness_p50_ms %.4f, sched_lag_p99_ms %.4f\n",
			ph.writes, opts.w.writeRate, percentile(ph.writeLat, 0.5), percentile(ph.fresh, 0.5), percentile(ph.schedLag, 0.99))
	}
	for _, f := range ph.failures {
		fmt.Fprintln(out, "failure:", f)
	}
	if finalErr != nil {
		fmt.Fprintln(out, "final check failed:", finalErr)
	}
	return top, res, nil
}

// defaultSetups is how many times a run sets up; see setUp.
const defaultSetups = 3

// windowCount is how many equal time windows the reader phase is split
// into for the windowed medians.
const windowCount = 10

func printMetrics(out io.Writer, ms map[string]metric) {
	for _, n := range sortedMetricNames(ms) {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
