package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/telemetry"
)

// TestSpanNoPointers is the structural half of the zero-alloc claim: the
// span rides inside every mbuf and the ring slots live for the process
// lifetime, so neither may contain a pointer the GC would have to chase.
func TestSpanNoPointers(t *testing.T) {
	leakcheck.NoPointers(t, "trace.Span", Span{})
	leakcheck.NoPointers(t, "trace.traceSlot", traceSlot{})
	leakcheck.NoPointers(t, "trace.Mark", Mark{})
}

func TestStageNames(t *testing.T) {
	for st := Stage(0); st < NumStages; st++ {
		if s := st.String(); strings.HasPrefix(s, "stage(") {
			t.Errorf("stage %d has no name", st)
		}
	}
	for _, name := range []string{"parse", "firewall", "maglev", "session"} {
		st, ok := StageForName(name)
		if !ok || st.String() != name {
			t.Errorf("StageForName(%q) = %v, %v", name, st, ok)
		}
	}
	if st, ok := StageForName("chaos-injector"); ok || st != NumStages {
		t.Errorf("unknown operator mapped to %v, ok=%v; want NumStages sentinel", st, ok)
	}
}

func TestSamplerInterval(t *testing.T) {
	tr := New(Config{SampleEvery: 100}) // rounds up to 128
	if got := tr.SampleEvery(); got != 128 {
		t.Fatalf("SampleEvery() = %d, want 128", got)
	}
	samp := tr.NewSampler()
	armedCount := 0
	var sp Span
	for i := 0; i < 128*4; i++ {
		if samp.MaybeArm(&sp, 0) {
			armedCount++
			tr.Abort(&sp) // return the span so conservation holds
		}
	}
	if armedCount != 4 {
		t.Fatalf("armed %d of %d packets, want exactly 4", armedCount, 128*4)
	}
	armed, completed, aborted := tr.Counts()
	if armed != 4 || completed != 0 || aborted != 4 {
		t.Fatalf("counts = %d/%d/%d, want 4/0/4", armed, completed, aborted)
	}
}

// TestLifecycle walks one span through arm → stage stamps → Complete and
// checks the dumped record, the attribution counters, and the recorder
// exemplar event.
func TestLifecycle(t *testing.T) {
	rec := telemetry.NewRecorder(16)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	samp := tr.NewSampler()

	var sp Span
	if !samp.MaybeArm(&sp, 3) {
		t.Fatal("SampleEvery=1 sampler did not arm the first packet")
	}
	if !sp.Armed() {
		t.Fatal("span not armed after MaybeArm returned true")
	}
	id := sp.id
	for _, st := range []Stage{StageParse, StageFirewall, StageMaglev, StageSession} {
		sp.StampAt(st, tr.Now())
	}
	tr.Complete(&sp)
	if sp.Armed() {
		t.Fatal("span still armed after Complete")
	}
	// Completing again must be a no-op (the span is disarmed).
	tr.Complete(&sp)
	armed, completed, aborted := tr.Counts()
	if armed != 1 || completed != 1 || aborted != 0 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/0", armed, completed, aborted)
	}

	recs := tr.Dump()
	if len(recs) != 1 {
		t.Fatalf("Dump() returned %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != id || r.Worker != 3 {
		t.Fatalf("record = id %d worker %d, want id %d worker 3", r.ID, r.Worker, id)
	}
	for _, st := range []Stage{StageIngress, StageParse, StageFirewall, StageMaglev, StageSession, StageTx} {
		if r.Stamps[st] == 0 {
			t.Errorf("stage %s has no stamp", st)
		}
	}
	for _, st := range []Stage{StageMailboxSend, StageMailboxRecv} {
		if r.Stamps[st] != 0 {
			t.Errorf("unvisited stage %s has a stamp", st)
		}
	}
	segs := r.Segments()
	if len(segs) != 6 {
		t.Fatalf("Segments() = %d entries, want 6 (ingress + 4 NFs + tx)", len(segs))
	}
	if segs[0].Stage != "ingress" || segs[0].Nanos != 0 {
		t.Errorf("first segment = %+v, want zero-length ingress anchor", segs[0])
	}
	if r.Total() < 0 {
		t.Errorf("Total() = %v, want >= 0", r.Total())
	}

	// The completion must have left an exemplar event carrying the ID.
	found := false
	for _, ev := range rec.Dump() {
		if ev.Kind == telemetry.EvTrace && ev.Arg == id {
			found = true
		}
	}
	if !found {
		t.Error("no EvTrace event with the trace ID in the recorder")
	}
}

func TestAbortEmitsEvent(t *testing.T) {
	rec := telemetry.NewRecorder(16)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	var sp Span
	tr.NewSampler().MaybeArm(&sp, 0)
	id := sp.id
	tr.Abort(&sp)
	if sp.Armed() {
		t.Fatal("span still armed after Abort")
	}
	tr.Abort(&sp) // disarmed: must not double-count
	armed, completed, aborted := tr.Counts()
	if armed != 1 || completed != 0 || aborted != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1/0/1", armed, completed, aborted)
	}
	found := false
	for _, ev := range rec.Dump() {
		if ev.Kind == telemetry.EvTraceAbort && ev.Arg == id {
			found = true
		}
	}
	if !found {
		t.Error("no EvTraceAbort event with the trace ID in the recorder")
	}
}

// TestUnarmedSpanIsInert: the pipeline stamps unconditionally, so every
// span method must be a no-op on the zero value.
func TestUnarmedSpanIsInert(t *testing.T) {
	var sp Span
	sp.StampAt(StageParse, Mark{Nanos: 123, Allocs: 4})
	if sp != (Span{}) {
		t.Fatal("StampAt modified an unarmed span")
	}
	tr := New(Config{SampleEvery: 1})
	tr.Complete(&sp)
	tr.Abort(&sp)
	if a, c, ab := tr.Counts(); a != 0 || c != 0 || ab != 0 {
		t.Fatalf("unarmed span moved lifecycle counters: %d/%d/%d", a, c, ab)
	}
}

// TestNilTracer: a nil *Tracer must be fully inert so ports and runners
// can instrument unconditionally.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.SampleEvery() != 0 {
		t.Fatal("nil tracer reports nonzero config")
	}
	samp := tr.NewSampler()
	var sp Span
	for i := 0; i < 100; i++ {
		if samp.MaybeArm(&sp, 0) {
			t.Fatal("nil tracer's sampler armed a span")
		}
	}
	tr.Complete(&sp)
	tr.Abort(&sp)
	tr.RegisterMetrics(telemetry.NewRegistry(), nil)
	if got := tr.Dump(); got != nil {
		t.Fatalf("nil tracer Dump() = %v, want nil", got)
	}
	if a, c, ab := tr.Counts(); a != 0 || c != 0 || ab != 0 {
		t.Fatal("nil tracer has nonzero counts")
	}
	// The renderers still write — they report disabled.
	for _, h := range []struct {
		name  string
		write func(io.Writer) error
	}{{"traces", tr.WriteJSON}, {"alloc", tr.WriteAllocJSON}} {
		var w bytes.Buffer
		if err := h.write(&w); err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		var body struct {
			Enabled bool `json:"enabled"`
		}
		if err := json.Unmarshal(w.Bytes(), &body); err != nil {
			t.Fatalf("%s: bad JSON: %v", h.name, err)
		}
		if body.Enabled {
			t.Errorf("%s: nil tracer reports enabled", h.name)
		}
	}
}

// TestRingWrap: completing more traces than the ring holds keeps only the
// newest Cap() records, in completion order.
func TestRingWrap(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Ring: 4})
	if tr.ring.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", tr.ring.Cap())
	}
	samp := tr.NewSampler()
	var lastID uint64
	for i := 0; i < 10; i++ {
		var sp Span
		samp.MaybeArm(&sp, 0)
		lastID = sp.id
		tr.Complete(&sp)
	}
	recs := tr.Dump()
	if len(recs) != 4 {
		t.Fatalf("Dump() after wrap = %d records, want 4", len(recs))
	}
	for i, r := range recs {
		want := lastID - uint64(len(recs)-1-i)
		if r.ID != want {
			t.Errorf("record %d: id %d, want %d (oldest-first order)", i, r.ID, want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	samp := tr.NewSampler()
	var sp Span
	samp.MaybeArm(&sp, 1)
	sp.StampAt(StageParse, tr.Now())
	sp.StampAt(StageFirewall, tr.Now())
	tr.Complete(&sp)

	var w bytes.Buffer
	if err := tr.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Enabled     bool   `json:"enabled"`
		SampleEvery int    `json:"sample_every"`
		Ring        int    `json:"ring"`
		Armed       uint64 `json:"armed"`
		Completed   uint64 `json:"completed"`
		Traces      []struct {
			ID     uint64    `json:"id"`
			Worker int32     `json:"worker"`
			Start  string    `json:"start"`
			Stages []Segment `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(w.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !body.Enabled || body.SampleEvery != 1 || body.Armed != 1 || body.Completed != 1 {
		t.Fatalf("body = %+v", body)
	}
	if len(body.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(body.Traces))
	}
	tj := body.Traces[0]
	if tj.Worker != 1 || len(tj.Stages) != 4 { // ingress, parse, firewall, tx
		t.Fatalf("trace = %+v, want worker 1 with 4 stages", tj)
	}
	if _, err := time.Parse(time.RFC3339Nano, tj.Start); err != nil {
		t.Errorf("start %q is not RFC3339Nano: %v", tj.Start, err)
	}
}

func TestWriteAllocJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	samp := tr.NewSampler()
	var sp Span
	samp.MaybeArm(&sp, 0)
	sp.StampAt(StageParse, tr.Now())
	tr.Complete(&sp)

	var w bytes.Buffer
	if err := tr.WriteAllocJSON(&w); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Enabled bool   `json:"enabled"`
		Metric  string `json:"metric"`
		Stages  []struct {
			Stage   string `json:"stage"`
			Samples uint64 `json:"samples"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(w.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !body.Enabled || body.Metric != allocMetric {
		t.Fatalf("body = %+v", body)
	}
	var parseSamples uint64
	for _, row := range body.Stages {
		if row.Stage == "parse" {
			parseSamples = row.Samples
		}
	}
	if parseSamples != 1 {
		t.Fatalf("parse stage samples = %d, want 1", parseSamples)
	}
}

func TestRegisterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := New(Config{SampleEvery: 1})
	tr.RegisterMetrics(reg, nil)
	snap := reg.Snapshot()
	for _, want := range []string{
		"trace_armed_total",
		"trace_completed_total",
		"trace_aborted_total",
		`trace_stage_latency_seconds{stage="parse"}`,
		`trace_stage_allocs_total{stage="session"}`,
		`trace_stage_samples_total{stage="tx"}`,
	} {
		if _, ok := snap[want]; !ok {
			t.Errorf("registry missing series %q", want)
		}
	}
}

// TestRecordPathZeroAlloc is the behavioral half of the zero-alloc claim:
// the untraced path (sampler miss, unarmed stamp) and the traced record
// path (arm, stamp, complete) allocate nothing per operation.
func TestRecordPathZeroAlloc(t *testing.T) {
	rec := telemetry.NewRecorder(64)
	tr := New(Config{SampleEvery: 1, Recorder: rec})
	// Warm up runtime/metrics: the first Read of a metric may allocate
	// its lazy-initialized description tables.
	metrics.Read(tr.allocSample)

	miss := New(Config{SampleEvery: 1 << 30})
	missSamp := miss.NewSampler()
	var missSpan Span
	if n := testing.AllocsPerRun(1000, func() {
		missSamp.MaybeArm(&missSpan, 0)
		missSpan.StampAt(StageParse, Mark{})
	}); n != 0 {
		t.Errorf("untraced path allocates %.1f objects/op, want 0", n)
	}

	samp := tr.NewSampler()
	var sp Span
	if n := testing.AllocsPerRun(1000, func() {
		samp.MaybeArm(&sp, 0)
		sp.StampAt(StageParse, tr.Now())
		sp.StampAt(StageFirewall, tr.Now())
		tr.Complete(&sp)
	}); n != 0 {
		t.Errorf("traced record path allocates %.1f objects/op, want 0", n)
	}
}
