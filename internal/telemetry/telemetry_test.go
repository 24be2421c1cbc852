package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)                    // bucket 0
	h.Observe(1)                    // bucket 1: [1,1]
	h.Observe(3)                    // bucket 2: [2,3]
	h.Observe(1024)                 // bucket 11: [1024,2047]
	h.Observe(-5)                   // clamps to 0 → bucket 0
	h.Observe(100 * time.Second)    // clamps into the last bucket
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	s := h.Snapshot()
	for i, want := range map[int]uint64{0: 2, 1: 1, 2: 1, 11: 1, NumBuckets - 1: 1} {
		if s.Buckets[i] != want {
			t.Errorf("bucket[%d] = %d, want %d", i, s.Buckets[i], want)
		}
	}
	if got := h.Sum(); got != 1028+100*time.Second {
		t.Fatalf("sum = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	if p50 < 8*time.Microsecond || p50 > 20*time.Microsecond {
		t.Errorf("p50 = %v, want ~16µs", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 30*time.Millisecond || p99 > 140*time.Millisecond {
		t.Errorf("p99 = %v, want ~67ms", p99)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if mean := s.Mean(); mean <= 0 {
		t.Errorf("mean = %v, want > 0", mean)
	}
}

func TestLabels(t *testing.T) {
	l := Labels{"b": "2", "a": "1"}
	if got := l.String(); got != `{a="1",b="2"}` {
		t.Fatalf("labels = %s", got)
	}
	if got := (Labels{}).String(); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	l2 := l.With("c", "3")
	if got := l2.String(); got != `{a="1",b="2",c="3"}` {
		t.Fatalf("With = %s", got)
	}
	if _, ok := l["c"]; ok {
		t.Fatal("With mutated the receiver")
	}
}

func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(3)
	reg.RegisterCounter("pkts_total", Labels{"worker": "0"}, &c)
	var g Gauge
	g.Set(-2)
	reg.RegisterGauge("depth", nil, &g)
	reg.RegisterGaugeFunc("occupancy", Labels{"pool": "port"}, func() float64 { return 17 })
	var h Histogram
	h.Observe(3 * time.Millisecond)
	reg.RegisterHistogram("latency_seconds", Labels{"worker": "0"}, &h)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pkts_total counter",
		`pkts_total{worker="0"} 3`,
		"# TYPE depth gauge",
		"depth -2",
		`occupancy{pool="port"} 17`,
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{worker="0",le="+Inf"} 1`,
		`latency_seconds_count{worker="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// Histogram buckets are cumulative: the +Inf bucket equals count.
	if !strings.Contains(out, "latency_seconds_sum") {
		t.Errorf("missing _sum series:\n%s", out)
	}
}

func TestRegistryReplaceAndUnregister(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter
	a.Add(1)
	b.Add(2)
	reg.RegisterCounter("x_total", nil, &a)
	reg.RegisterCounter("x_total", nil, &b) // replaces: re-runs re-register
	snap := reg.Snapshot()
	if got := snap["x_total"]; got != 2.0 {
		t.Fatalf("after replace: %v, want 2", got)
	}
	reg.Unregister("x_total", nil)
	if got := len(reg.Snapshot()); got != 0 {
		t.Fatalf("after unregister: %d series", got)
	}
}

func TestRegistryJSONSnapshot(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	h.Observe(time.Millisecond)
	reg.RegisterHistogram("lat_seconds", nil, &h)
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"count":1`) {
		t.Fatalf("JSON missing histogram count: %s", b.String())
	}
	hv, ok := reg.Snapshot()["lat_seconds"].(HistogramValue)
	if !ok || hv.Count != 1 || hv.P50Secs <= 0 {
		t.Fatalf("histogram value = %+v", hv)
	}
}

func TestNilRegistryAndRecorder(t *testing.T) {
	var reg *Registry
	var c Counter
	reg.RegisterCounter("x", nil, &c) // must not panic
	reg.Unregister("x", nil)
	if reg.Snapshot() != nil && len(reg.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var rec *Recorder
	rec.Record(rec.Actor("a"), EvSend, 1) // must not panic
	if rec.Dump() != nil || rec.Len() != 0 || rec.Cap() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestRecorderDumpOrder(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.Actor("worker-0")
	b := rec.Actor("worker-1")
	if rec.Actor("worker-0") != a {
		t.Fatal("actor interning not stable")
	}
	rec.Record(a, EvSend, 1)
	rec.Record(b, EvPanic, 0)
	rec.Record(a, EvRestart, 2)
	evs := rec.Dump()
	if len(evs) != 3 {
		t.Fatalf("dump len = %d, want 3", len(evs))
	}
	if evs[0].Kind != EvSend || evs[0].Actor != "worker-0" ||
		evs[1].Kind != EvPanic || evs[1].Actor != "worker-1" ||
		evs[2].Kind != EvRestart || evs[2].Arg != 2 {
		t.Fatalf("dump = %v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, ev.Seq)
		}
		if ev.String() == "" {
			t.Fatal("empty String()")
		}
	}
}

func TestRecorderWraps(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.Actor("d")
	for i := 0; i < 100; i++ {
		rec.Record(a, EvSend, uint64(i))
	}
	evs := rec.Dump()
	if len(evs) != 16 {
		t.Fatalf("dump len = %d, want ring size 16", len(evs))
	}
	if rec.Len() != 16 {
		t.Fatalf("Len = %d", rec.Len())
	}
	// Oldest surviving event is #85 (100 recorded, 16 kept).
	if evs[0].Seq != 85 || evs[0].Arg != 84 {
		t.Fatalf("oldest = %+v", evs[0])
	}
	if evs[15].Seq != 100 || evs[15].Arg != 99 {
		t.Fatalf("newest = %+v", evs[15])
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvSend, EvRecv, EvDrop, EvError, EvPanic, EvHang,
		EvBackoff, EvRestart, EvStop}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d stringifies poorly: %q", k, s)
		}
		seen[s] = true
	}
}

// TestRecordPathZeroAlloc is the tentpole invariant: the record path of
// every metric type, and of the flight recorder, performs zero heap
// allocations. The benchmarks prove the same under -benchmem; this test
// enforces it in the ordinary test tier.
func TestRecordPathZeroAlloc(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	rec := NewRecorder(1024)
	actor := rec.Actor("worker-0")
	cases := map[string]func(){
		"counter":   func() { c.Add(1) },
		"gauge":     func() { g.Set(3) },
		"histogram": func() { h.Observe(123 * time.Microsecond) },
		"recorder":  func() { rec.Record(actor, EvSend, 7) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s record path: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
