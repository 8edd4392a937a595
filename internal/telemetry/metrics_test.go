package telemetry

import (
	"encoding/json"
	"testing"
)

func TestCounterAndVec(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same series.
	if again := reg.Counter("test_total", "help"); again != c {
		t.Error("re-registration returned a different handle")
	}

	v := reg.CounterVec("test_labeled_total", "help", "kind")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Inc()
	if v.With("a").Value() != 2 || v.With("b").Value() != 1 {
		t.Errorf("vec values = %d/%d, want 2/1", v.With("a").Value(), v.With("b").Value())
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("test_gauge", "help")
	g.Set(2.5)
	g.Add(1.5)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	snap := reg.Snapshot()
	buckets := snap.Families[0].Series[0].Buckets
	wantCum := []uint64{1, 3, 4, 5} // le=0.1, 1, 10, +Inf cumulative
	if len(buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(buckets), len(wantCum))
	}
	for i, b := range buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %s = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
	if buckets[3].LE != "+Inf" {
		t.Errorf("last bucket le = %q, want +Inf", buckets[3].LE)
	}
}

func TestFuncCollectors(t *testing.T) {
	reg := NewRegistry()
	n := 0.0
	reg.CounterFunc("test_fn_total", "help", func() float64 { return n })
	n = 7
	if got := reg.Snapshot().Families[0].Series[0].Value; got != 7 {
		t.Fatalf("func counter = %v, want 7", got)
	}
	// Last registration wins, so rebuilt fixtures can re-wire.
	reg.CounterFunc("test_fn_total", "help", func() float64 { return 11 })
	if got := reg.Snapshot().Families[0].Series[0].Value; got != 11 {
		t.Fatalf("replaced func counter = %v, want 11", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter recorded")
	}
	g := reg.Gauge("x", "")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge recorded")
	}
	h := reg.Histogram("x_seconds", "", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded")
	}
	reg.CounterVec("v_total", "", "l").With("a").Inc()
	reg.GaugeVec("vg", "", "l").With("a").Set(1)
	reg.HistogramVec("vh_seconds", "", nil, "l").With("a").Observe(1)
	reg.CounterFunc("f_total", "", func() float64 { return 1 })
	reg.GaugeFunc("fg", "", func() float64 { return 1 })
	reg.GaugeVec("vfg", "", "l").Func(func() float64 { return 1 }, "a")
	if got := len(reg.Snapshot().Families); got != 0 {
		t.Errorf("nil registry snapshot has %d families", got)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(reg *Registry)
	}{
		{"kind", func(reg *Registry) { reg.Counter("m", ""); reg.Gauge("m", "") }},
		{"labels", func(reg *Registry) { reg.CounterVec("m", "", "a"); reg.CounterVec("m", "", "b") }},
		{"buckets", func(reg *Registry) {
			reg.Histogram("m", "", []float64{1})
			reg.Histogram("m", "", []float64{2})
		}},
		{"bad name", func(reg *Registry) { reg.Counter("9bad", "") }},
		{"bad label", func(reg *Registry) { reg.CounterVec("m", "", "bad-label") }},
		{"arity", func(reg *Registry) { reg.CounterVec("m", "", "a").With("x", "y") }},
		{"unsorted buckets", func(reg *Registry) { reg.Histogram("m", "", []float64{2, 1}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn(NewRegistry())
		})
	}
}

// TestStatsSnapshotShape pins the JSON form of the registry embedded by
// the serving layer's /stats endpoint.
func TestStatsSnapshotShape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total", "second").Add(2)
	reg.CounterVec("a_total", "first", "kind").With("x").Inc()
	reg.Histogram("c_seconds", "third", []float64{1}).Observe(0.5)

	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"families":[` +
		`{"name":"a_total","help":"first","type":"counter","series":[{"labels":[{"name":"kind","value":"x"}],"value":1}]},` +
		`{"name":"b_total","help":"second","type":"counter","series":[{"value":2}]},` +
		`{"name":"c_seconds","help":"third","type":"histogram","series":[{"value":0,"count":1,"sum":0.5,"buckets":[{"le":"1","count":1},{"le":"+Inf","count":1}]}]}` +
		`]}`
	if string(data) != want {
		t.Errorf("snapshot JSON:\n got %s\nwant %s", data, want)
	}
}

// TestRecordAllocations is the hot-path acceptance criterion: recording
// on a held handle must not allocate.
func TestRecordAllocations(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("alloc_total", "")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	g := reg.Gauge("alloc_gauge", "")
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	h := reg.Histogram("alloc_seconds", "", nil)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.42) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	v := reg.CounterVec("alloc_vec_total", "", "a", "b")
	v.With("x", "y").Inc() // create the series outside the measurement
	if n := testing.AllocsPerRun(1000, func() { v.With("x", "y").Inc() }); n > 1 {
		t.Errorf("CounterVec.With(...).Inc allocates %v/op, want <= 1", n)
	}
}

// TestGaugeVecFunc: a func-backed series of a labelled gauge is
// evaluated on every snapshot, beside the family's stored series, and
// registering it again replaces the function.
func TestGaugeVecFunc(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("kept_bytes", "", "memo")
	n := 3.0
	v.Func(func() float64 { return n }, "a")
	v.With("b").Set(7)
	values := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range reg.Snapshot().Families[0].Series {
			out[s.Labels[0].Value] = s.Value
		}
		return out
	}
	if got := values(); got["a"] != 3 || got["b"] != 7 {
		t.Fatalf("series = %v, want a=3 b=7", got)
	}
	n = 5
	if got := values(); got["a"] != 5 {
		t.Fatalf("func series read %v after its source moved to 5", got["a"])
	}
	v.Func(func() float64 { return 11 }, "a")
	if got := values(); got["a"] != 11 {
		t.Fatalf("re-registered func series read %v, want 11", got["a"])
	}
}
