package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spreadReport runs the workload n times, each in its own process with
// seeds opts.seed .. opts.seed+n-1, and prints every end-to-end metric's
// median, quartiles and spread (the distance between the quartiles as a
// share of the median) — the evidence a bound rests on, and what a later
// comparison must beat before it calls a change real.
func spreadReport(out io.Writer, opts options, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := opts.seed + int64(i)
		args := []string{
			"--workload", opts.w.name,
			"--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(opts.seconds),
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w\n%s", seed, err, stdout)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %d: decoding result: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run failed its checks (%d of %d failed)", seed, res.Failed, res.Attempted)
		}
		fmt.Fprintf(out, "seed %d:", seed)
		for _, name := range sortedMetricNames(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Fprintf(out, " %s=%.4g", name, m.Value)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "\n%s over %d seeds from %d, %d s runs:\n", opts.w.name, n, opts.seed, opts.seconds)
	fmt.Fprintf(out, "  %-16s %-6s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vs := values[name]
		q1, q3 := quartiles(vs)
		med := median(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(out, "  %-16s %-6s %12.4f %12.4f %12.4f %8.4f\n", name, units[name], q1, med, q3, spread)
	}
	return nil
}

func sortedMetricNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
