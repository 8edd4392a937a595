package main

import (
	"strings"
	"testing"
)

// TestSpread pins the median and the quartile rule on odd and even
// counts, against the values Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{400, 100, 200}, 100, 200, 400},
		{[]float64{300, 100, 400, 200}, 125, 250, 375},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
	} {
		q1, med, q3 := spread(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("spread(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestRun feeds captured `go test -bench` text through the summariser.
// Each want is one output line with its whitespace collapsed; a case
// with wantErr must fail, which main turns into a non-zero exit.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		want    []string
		wantErr bool
	}{{
		name: "odd count",
		in: `BenchmarkA/x-2   100   400 ns/op
BenchmarkA/x-2   100   100 ns/op
BenchmarkA/x-2   100   200 ns/op
`,
		want: []string{"A/x-2 3 200ns 100ns–400ns"},
	}, {
		name: "even count",
		in: `BenchmarkA-2   10   300 ns/op
BenchmarkA-2   10   100 ns/op
BenchmarkA-2   10   400 ns/op
BenchmarkA-2   10   200 ns/op
`,
		want: []string{"A-2 4 250ns 125ns–375ns"},
	}, {
		name: "family ratios to the first sibling",
		in: `BenchmarkF/base-2   10   2000000 ns/op
BenchmarkF/fast-2   10    500000 ns/op
BenchmarkF/slow-2   10   6000000 ns/op
BenchmarkF/base-2   10   2000000 ns/op
BenchmarkF/fast-2   10    500000 ns/op
BenchmarkF/slow-2   10   6000000 ns/op
BenchmarkG/only-2   10   1000 ns/op
`,
		want: []string{
			"F/base-2 2 2ms 2ms–2ms",
			"F/fast-2 2 500µs 500µs–500µs 0.25x base-2",
			"F/slow-2 2 6ms 6ms–6ms 3x base-2",
			"G/only-2 1 1µs 1µs–1µs",
		},
	}, {
		name: "benchmem and ReportMetric columns",
		in: `BenchmarkM-2   10   1500 ns/op   0.25 hits/op   2048 B/op   12 allocs/op
BenchmarkM-2   10   2500 ns/op   0.75 hits/op   2048 B/op   14 allocs/op
`,
		want: []string{"M-2 2 2µs 1.25µs–2.75µs 0.5 hits/op 13 allocs/op"},
	}, {
		name: "headers and status lines ignored, packages kept apart",
		in: `goos: linux
goarch: amd64
pkg: dexa/internal/a
cpu: Intel(R) Xeon(R) Processor
BenchmarkSame-2   10   100 ns/op   0 B/op   0 allocs/op
BenchmarkLogs
    a_test.go:12: a benchmark's log line
BenchmarkLogs-2   10   300 ns/op
PASS
ok  	dexa/internal/a	1.234s
goos: linux
pkg: dexa/internal/b
BenchmarkSame-2   10   200 ns/op   0 B/op   0 allocs/op
BenchmarkSame-2   10   200 ns/op   0 B/op   0 allocs/op
PASS
ok  	dexa/internal/b	0.5s
`,
		want: []string{
			"dexa/internal/a",
			"Same-2 1 100ns 100ns–100ns 0 allocs/op",
			"Logs-2 1 300ns 300ns–300ns",
			"dexa/internal/b",
			"Same-2 2 200ns 200ns–200ns 0 allocs/op",
		},
	}, {
		name: "failed benchmark",
		in: `BenchmarkA-2   10   100 ns/op
    --- FAIL: BenchmarkB/sub
        b_test.go:9: boom
`,
		wantErr: true,
	}, {
		name:    "failed package",
		in:      "BenchmarkA-2   10   100 ns/op\nFAIL\tdexa/internal/a [build failed]\n",
		wantErr: true,
	}, {
		name:    "no benchmark lines",
		in:      "goos: linux\npkg: dexa/internal/a\nPASS\nok  \tdexa/internal/a\t0.1s\n",
		wantErr: true,
	}, {
		name:    "empty input",
		wantErr: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(strings.NewReader(tc.in), &out)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("run succeeded, want an error; output:\n%s", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] != "benchmark" {
					got = append(got, strings.Join(f, " "))
				}
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("output lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
