package main

import (
	"io"
	"reflect"
	"testing"
	"time"
)

func testCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := buildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// The seed alone fixes a run's inputs: the same seed gives the same
// request sequence and write schedule, another seed a different order.
func TestSameSeedSameInputs(t *testing.T) {
	cat := testCatalog(t)
	for _, w := range workloads {
		a, err := makePlan(w, cat, 7, 400)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, cat, 7, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		c, err := makePlan(w, cat, 8, 400)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.requests, c.requests) {
			t.Errorf("%s: seeds 7 and 8 give the same request sequence", w.name)
		}
		if len(a.requests) != 400 {
			t.Errorf("%s: %d requests, want 400", w.name, len(a.requests))
		}
		if (w.writeRate > 0) != (len(a.writes) > 0) {
			t.Errorf("%s: %d writes at write rate %v", w.name, len(a.writes), w.writeRate)
		}
	}
}

// Every scheduled churn write changes what the store holds, and only the
// written half of the catalog is written.
func TestChurnWritesAlwaysChangeContent(t *testing.T) {
	cat := testCatalog(t)
	w, _ := findWorkload("churn")
	p, err := makePlan(w, cat, 11, 2000)
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, id := range p.written {
		written[id] = true
	}
	stored := map[string]string{}
	for _, id := range cat.ids {
		stored[id] = cat.hash[id]
	}
	for i, wr := range p.writes {
		if !written[wr.Module] {
			t.Fatalf("write %d targets %s outside the written half", i, wr.Module)
		}
		h := cat.hash[wr.Module]
		if wr.Variant >= 0 {
			h = cat.variantHash[wr.Module][wr.Variant]
		}
		if h == stored[wr.Module] {
			t.Fatalf("write %d of %s stores the content already there", i, wr.Module)
		}
		stored[wr.Module] = h
		if i > 0 && wr.Due <= p.writes[i-1].Due {
			t.Fatalf("write %d is not due after write %d", i, i-1)
		}
	}
	for _, r := range p.requests {
		if r.Kind == "generate" && written[r.Target] {
			t.Fatalf("refresh request for written module %s", r.Target)
		}
	}
}

// The churn writer's schedule covers twice the readers' nominal run, so
// readers that slow down still run under writes.
func TestChurnScheduleOutlastsReaders(t *testing.T) {
	cat := testCatalog(t)
	w, _ := findWorkload("churn")
	const requests = 2000
	p, err := makePlan(w, cat, 5, requests)
	if err != nil {
		t.Fatal(err)
	}
	nominal := time.Duration(float64(requests) / w.readRate * float64(time.Second))
	if last := p.writes[len(p.writes)-1].Due; last < 19*nominal/10 {
		t.Fatalf("last write due at %v, readers' nominal run is %v", last, nominal)
	}
}

// Coverage counts transport and the named spans, each timed on its own:
// a request whose layer span is missing is covered less. The replay's
// time beyond its named spans is not coverage.
func TestCoverageDropsWithoutALayerSpan(t *testing.T) {
	spans := func(withLayer bool) []span {
		ss := []span{
			{Req: "e2e-0", Name: "client", Calls: 1, Start: 0, End: 100},
			{Req: "e2e-0", Name: "serve.handler", Calls: 1, Start: 20, End: 80},
			{Req: "e2e-0", Name: "serve.write", Calls: 1, Start: 75, End: 80},
			{Req: "e2e-0", Name: "replay.handler", Calls: 1, Start: 100, End: 150},
			{Req: "e2e-0", Name: "serve.encode", Calls: 1, Start: 150, End: 175},
		}
		if withLayer {
			ss = append(ss, span{Req: "e2e-0", Name: "store.get", Calls: 1, Start: 175, End: 195})
		}
		return ss
	}
	// transport = 100 − (60 − 5) = 45; named = 25 (+ 20 with the layer).
	if got := selfTimes(spans(true)).coverage; got != 0.9 {
		t.Errorf("coverage with the layer span = %v, want 0.9", got)
	}
	if got := selfTimes(spans(false)).coverage; got != 0.7 {
		t.Errorf("coverage without the layer span = %v, want 0.7", got)
	}
}

// A tiny-budget run of each workload passes every check and reports every
// end-to-end metric; the traced run reports every per-layer metric.
func TestTinyRunsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every topology")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opts := options{w: w, seed: 3, seconds: 1, requests: 80, setups: 1, scratch: t.TempDir()}
			res, err := runMeasured(io.Discard, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("run failed its checks: %d of %d failed", res.Failed, res.Attempted)
			}
			if got := res.Metrics["success_ratio"].Value; got != 1 {
				t.Fatalf("success_ratio = %v", got)
			}
			for _, name := range []string{"setup_s", "throughput_rps", "p50_ms", "p99_ms", "success_ratio", "heap_mb"} {
				if m, ok := res.Metrics[name]; !ok || m.Unit == "" || m.Value <= 0 {
					t.Errorf("metric %s = %+v", name, m)
				}
			}

			traced, err := runTraced(io.Discard, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run failed its checks: %d of %d failed", traced.Failed, traced.Attempted)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want %d", len(traced.Metrics), len(perLayer))
			}
			if cov := traced.Metrics["trace.coverage_ratio"].Value; cov <= 0 {
				t.Errorf("trace.coverage_ratio = %v", cov)
			}
		})
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v; want 1, 3", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v", m)
	}
}
