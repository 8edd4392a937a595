// Command dexa-bench summarises `go test -bench` output read from stdin:
// per benchmark, the run count, the median ns/op with its quartiles, and
// the median of every other column but B/op (allocs/op, ReportMetric
// units); per family of sub-benchmarks, each sibling's median time as a
// ratio of the first sibling's, measured in the same run. It exits
// non-zero when the input reports a failure or holds no results.
//
//	go test -run '^$' -bench . -benchmem -count 10 ./... | go run ./cmd/dexa-bench
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is every run of one benchmark: per unit, one value per run.
type bench struct {
	pkg, name string
	units     []string
	values    map[string][]float64
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dexa-bench:", err)
		os.Exit(1)
	}
}

// run summarises the benchmark output on in, writing the table to out.
func run(in io.Reader, out io.Writer) error {
	benches, err := parse(in)
	if err != nil {
		return err
	}
	family := func(b *bench) string { return b.pkg + " " + strings.SplitN(b.name, "/", 2)[0] }
	var base *bench // the first sibling of b's family
	for _, b := range benches {
		if base == nil || b.pkg != base.pkg {
			fmt.Fprintf(out, "%s\n  %-42s %4s %10s %21s\n", b.pkg, "benchmark", "runs", "median", "q1–q3")
		}
		if base == nil || family(b) != family(base) {
			base = b
		}
		q1, med, q3 := spread(b.values["ns/op"])
		fmt.Fprintf(out, "  %-42s %4d %10s %21s", strings.TrimPrefix(b.name, "Benchmark"), len(b.values["ns/op"]),
			duration(med), duration(q1)+"–"+duration(q3))
		for _, u := range b.units {
			if u != "ns/op" && u != "B/op" {
				_, m, _ := spread(b.values[u])
				fmt.Fprintf(out, "  %.6g %s", m, u)
			}
		}
		if b != base {
			_, first, _ := spread(base.values["ns/op"])
			_, sub, _ := strings.Cut(base.name, "/")
			fmt.Fprintf(out, "  %.3gx %s", med/first, sub)
		}
		fmt.Fprintln(out)
	}
	return nil
}

// parse collects the result lines of in by package and benchmark name,
// in first-seen order. Any FAIL line, or no result line at all, is an
// error: a summary of a failed or empty run would read as a clean one.
func parse(in io.Reader) ([]*bench, error) {
	var benches []*bench
	byKey := map[string]*bench{}
	pkg, failed := "", false
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			failed = true
		}
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // a benchmark's name echoed before its log output
		}
		b := byKey[pkg+" "+f[0]]
		if b == nil {
			b = &bench{pkg: pkg, name: f[0], values: map[string][]float64{}}
			byKey[pkg+" "+f[0]] = b
			benches = append(benches, b)
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", f[0], f[i])
			}
			if _, ok := b.values[f[i+1]]; !ok {
				b.units = append(b.units, f[i+1])
			}
			b.values[f[i+1]] = append(b.values[f[i+1]], v)
		}
	}
	if failed {
		return nil, fmt.Errorf("the input reports a failure")
	} else if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmark results in the input")
	}
	return benches, sc.Err()
}

// duration formats nanoseconds with three significant digits.
func duration(ns float64) string {
	if ns < 1000 {
		return strconv.FormatFloat(ns, 'g', 3, 64) + "ns"
	}
	d, unit := time.Duration(ns), time.Duration(1)
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit).String()
}

// spread returns the first quartile, median and third quartile of xs.
// The quartiles follow the exclusive method of Python's
// statistics.quantiles(xs, n=4), the rule e2ebench's spread report uses.
func spread(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), (s[(n-1)/2] + s[n/2]) / 2, at(3)
}
