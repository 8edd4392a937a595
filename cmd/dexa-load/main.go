// Command dexa-load drives traffic against a dexa-serve instance or
// cluster and reports latency percentiles per endpoint class, as one
// JSON document per run.
//
// Two loop disciplines:
//
//   - closed (default): -users virtual users, each issuing its next
//     request as soon as the previous one answers — throughput is an
//     output, concurrency the input.
//   - open: requests fire at a fixed -rate regardless of how fast the
//     server answers — latency under overload is visible instead of
//     being absorbed by the loop (coordinated omission).
//
// The request mix weights the public query endpoints; module-scoped
// requests draw from the annotated catalog discovered at startup:
//
//	dexa-load -targets http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	          -users 8 -duration 30s \
//	          -mix examples=6,search=3,substitutes=2,matches=1,compose=1 \
//	          -o load.json
//
// The search kind alternates keyword and behaves: queries over the
// annotated catalog; compose asks for workflow synthesis between
// concept pairs sampled from module signatures at discovery. The
// generate kind is the write path — POST .../generate?refresh=1,
// forced re-annotation through the store's group-commit path — and is
// opt-in via -mix (e.g. -mix "examples=4,generate=2"); the default mix
// never mutates server state. Failures are reported per kind, broken
// down by class (timeout, network, status NNN).
//
// A -requests budget bounds the run regardless of -duration (whichever
// ends first), which keeps CI smoke runs cheap and deterministic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dexa/internal/buildinfo"
)

func main() {
	targets := flag.String("targets", "http://127.0.0.1:8080", "comma-separated base URLs of the instances to load")
	mode := flag.String("mode", "closed", "loop discipline: closed (fixed users) or open (fixed rate)")
	users := flag.Int("users", 4, "closed loop: concurrent virtual users")
	rate := flag.Float64("rate", 50, "open loop: requests per second")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive traffic")
	requests := flag.Int("requests", 0, "total request budget (0 = bounded by -duration only)")
	mix := flag.String("mix", "examples=6,search=3,substitutes=2,matches=1,catalog=1,stats=1,compose=1", "endpoint mix as kind=weight pairs")
	seed := flag.Int64("seed", 1, "seed for the deterministic request stream")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	out := flag.String("o", "", "write the JSON report here (default stdout)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := Config{
		Targets:  splitTargets(*targets),
		Mode:     *mode,
		Users:    *users,
		Rate:     *rate,
		Duration: *duration,
		Requests: *requests,
		Mix:      weights,
		Seed:     *seed,
		Timeout:  *timeout,
	}
	report, err := Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report.Date = time.Now().UTC().Format(time.RFC3339)
	report.GoVersion = runtime.Version()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%d requests (%d failed) in %.2fs — overall p50 %.2fms p99 %.2fms\n",
		report.Overall.Requests, report.Overall.Failures, report.DurationSeconds,
		report.Overall.Latency.P50Ms, report.Overall.Latency.P99Ms)
	if report.Overall.Failures > 0 {
		os.Exit(1)
	}
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, strings.TrimSuffix(t, "/"))
		}
	}
	return out
}

// parseMix reads "kind=weight,..." into weights.
func parseMix(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("mix entry %q is not kind=weight", part)
		}
		kind := strings.TrimSpace(kv[0])
		if !knownKind(kind) {
			return nil, fmt.Errorf("unknown mix kind %q (known: %s)", kind, strings.Join(kinds, ", "))
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(kv[1]), "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q is not a non-negative integer", kv[1])
		}
		if w > 0 {
			out[kind] = w
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the mix selects no endpoints")
	}
	return out, nil
}
