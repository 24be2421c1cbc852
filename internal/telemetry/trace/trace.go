// Package trace is the sampled per-packet tracer: the instrument that
// turns aggregate pipeline counters into an answer to "where inside
// parse→firewall→maglev→session does one packet's time and allocation
// budget go?".
//
// The design constraint is the same one the telemetry package proves for
// counters: observability must not perturb the hot path it observes. The
// tracer meets it by construction:
//
//   - Sampling is a power-of-two modulus on a per-receive-loop counter:
//     the untraced path pays one increment and one predictable branch
//     per packet — no atomics, no allocations, no syscalls.
//   - Span state is a fixed-size, pointer-free value struct carried
//     inside the mbuf (packet.Packet.Trace), so arming a trace allocates
//     nothing and a span can never pin pipeline memory against the GC —
//     leakcheck.NoPointers asserts this structurally.
//   - Stage stamping is a nil-guarded store of a pre-taken Mark into the
//     span's arrays; every record path is 0 allocs/op (the alloc gate in
//     `make check` enforces it).
//   - Completed traces land in a telemetry.Ring (the lock-free ring of
//     all-atomic slots the flight recorder also is) and feed per-stage
//     latency histograms; EvTrace/EvTraceAbort flight-recorder events
//     link the aggregate view back to individual trace IDs in
//     /debug/traces.
//
// Span lifecycle is conservation-checked: every armed span is completed
// exactly once (at TX) or aborted exactly once (packet dropped, batch
// faulted, domain crashed mid-flight, ring drained at shutdown), so
// `armed == completed + aborted` holds at quiescence — the tracer's
// equivalent of the mempool's leak accounting.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Stage identifies one stamp position along a packet's path through the
// pipeline, in traversal order. Unknown operators simply never stamp, so
// the enum can stay closed while pipelines stay open.
type Stage uint8

// The stamp positions, in the order a packet visits them. A stage a
// packet never visits (e.g. the mailbox hops in direct mode) leaves a
// zero stamp; segment attribution skips it.
const (
	// StageIngress: the span was armed at netport ingress, after the
	// kernel copy and parse, before ring enqueue.
	StageIngress Stage = iota
	// StageMailboxSend: the feeder moved the batch into a worker
	// domain's mailbox (supervised mode only).
	StageMailboxSend
	// StageMailboxRecv: the worker domain dequeued the batch
	// (supervised mode only).
	StageMailboxRecv
	// StageParse through StageSession: the four NF operators.
	StageParse
	StageFirewall
	StageMaglev
	StageSession
	// StageTx: the packet reached TxBurstQueue; stamped by Complete.
	StageTx
	// NumStages sizes the span arrays; also the "no stage" sentinel for
	// operators whose name maps to nothing.
	NumStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageIngress:
		return "ingress"
	case StageMailboxSend:
		return "mailbox-send"
	case StageMailboxRecv:
		return "mailbox-recv"
	case StageParse:
		return "parse"
	case StageFirewall:
		return "firewall"
	case StageMaglev:
		return "maglev"
	case StageSession:
		return "session"
	case StageTx:
		return "tx"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// StageForName maps an Operator.Name() onto its stamp position. Names
// outside the known NF set report ok=false; such stages run untraced
// (their time lands in the following known stage's segment).
func StageForName(name string) (Stage, bool) {
	switch name {
	case "parse":
		return StageParse, true
	case "firewall":
		return StageFirewall, true
	case "maglev":
		return StageMaglev, true
	case "session":
		return StageSession, true
	default:
		return NumStages, false
	}
}

// Mark is one point-in-time observation: a wall-clock nanosecond stamp
// and the runtime's cumulative heap-allocation count. Taking a Mark is a
// traced-path-only operation (see Tracer.Now); stamping one into a span
// is a pair of plain stores.
type Mark struct {
	Nanos  int64
	Allocs uint64
}

// Span is the per-mbuf trace state: a fixed-size value struct with no
// pointers, embedded in packet.Packet so arming a trace allocates
// nothing and a crashed stage can never leak a span. The zero value is
// an unarmed span; every method is a no-op on it, so the pipeline stamps
// unconditionally and only sampled packets pay for it.
type Span struct {
	id     uint64 // 0 = unarmed
	worker int32
	stamps [NumStages]int64  // unix nanos; 0 = stage not visited
	allocs [NumStages]uint64 // cumulative heap allocs at the stamp
}

// Armed reports whether the span is live (armed, not yet completed or
// aborted). One inlineable field compare — the untraced-path guard.
func (s *Span) Armed() bool { return s.id != 0 }

// StampAt records m as the span's visit to st. No-op on an unarmed span
// or an out-of-range stage; re-stamping a stage overwrites (last visit
// wins, which is what a restarted delivery should report).
func (s *Span) StampAt(st Stage, m Mark) {
	if s.id == 0 || st >= NumStages {
		return
	}
	s.stamps[st] = m.Nanos
	s.allocs[st] = m.Allocs
}

// Clear resets the span to unarmed. Packet reuse calls this so a
// recycled mbuf never resurrects a stale trace.
func (s *Span) Clear() { *s = Span{} }

// Sampler is one receive loop's arming decision: a plain (loop-owned,
// unsynchronized) packet counter against a power-of-two mask. One
// sampler must be owned by exactly one goroutine; the port gives each
// receive loop its own.
type Sampler struct {
	t   *Tracer
	ctr uint64
}

// MaybeArm counts one ingress packet and arms sp for every SampleEvery-th
// one, stamping StageIngress. The miss path — every packet when the
// tracer is off, all but 1/N when on — is an increment, a mask test, and
// a branch: 0 allocs, 0 atomics. Returns whether sp was armed.
func (s *Sampler) MaybeArm(sp *Span, worker int) bool {
	if s == nil {
		return false
	}
	s.ctr++
	if s.ctr&s.t.mask != 0 {
		return false
	}
	s.t.arm(sp, worker)
	return true
}

// traceSlot is one completed-trace record in the tracer's
// telemetry.Ring: all atomic cells, no pointers.
type traceSlot struct {
	id     atomic.Uint64
	worker atomic.Int64
	stamps [NumStages]atomic.Int64
	allocs [NumStages]atomic.Uint64
}

// allocMetric is the runtime/metrics counter behind Mark.Allocs:
// cumulative heap objects allocated, process-wide. Because it is global,
// per-stage alloc deltas on a traced packet attribute everything the
// process allocated during that stage's window — an estimate that
// converges on the stage's own cost as sampling repeats, the
// MallocsPerOp trade-off made continuous.
const allocMetric = "/gc/heap/allocs:objects"

// Config parameterizes New.
type Config struct {
	// SampleEvery arms one in this many ingress packets per receive
	// loop, rounded up to a power of two (minimum 1 = every packet).
	SampleEvery int
	// Ring is the completed-trace ring capacity (default 128, rounded
	// up to a power of two).
	Ring int
	// Recorder, when non-nil, receives an EvTrace event per completed
	// trace and an EvTraceAbort per aborted one (arg = trace ID), so
	// the flight recorder carries exemplar links into /debug/traces.
	Recorder *telemetry.Recorder
}

// Tracer owns the sampling configuration, the per-stage attribution
// histograms, and the completed-trace ring. A nil *Tracer is valid:
// every method is a no-op (NewSampler returns a nil sampler whose
// MaybeArm never arms), so ports and runners instrument unconditionally.
type Tracer struct {
	mask  uint64 // sampleEvery - 1
	every int
	ids   atomic.Uint64
	rec   *telemetry.Recorder
	actor telemetry.ActorID

	// Per-stage segment attribution: segLat[s] observes the latency
	// between stage s's stamp and the previous visited stage's;
	// segAllocs[s]/segSamples[s] accumulate the alloc deltas over the
	// same windows. StageIngress opens every trace and never has a
	// segment of its own.
	segLat     [NumStages]telemetry.Histogram
	segAllocs  [NumStages]telemetry.Counter
	segSamples [NumStages]telemetry.Counter

	armed     telemetry.Counter
	completed telemetry.Counter
	aborted   telemetry.Counter

	ring telemetry.Ring[traceSlot]

	// allocMu guards the preallocated runtime/metrics scratch so Now
	// stays allocation-free; allocOK gates on the metric existing.
	allocMu     sync.Mutex
	allocSample []metrics.Sample
	allocOK     bool
}

// New builds a tracer arming one in cfg.SampleEvery ingress packets.
func New(cfg Config) *Tracer {
	every := 1
	for every < cfg.SampleEvery {
		every <<= 1
	}
	ring := cfg.Ring
	if ring <= 0 {
		ring = 128
	}
	t := &Tracer{
		mask:        uint64(every - 1),
		every:       every,
		rec:         cfg.Recorder,
		actor:       cfg.Recorder.Actor("trace"),
		allocSample: []metrics.Sample{{Name: allocMetric}},
	}
	t.ring.Init(ring)
	metrics.Read(t.allocSample)
	t.allocOK = t.allocSample[0].Value.Kind() == metrics.KindUint64
	return t
}

// SampleEvery reports the resolved (power-of-two) sampling interval.
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return t.every
}

// NewSampler returns an arming sampler for one receive loop. A nil
// tracer returns a nil sampler, whose MaybeArm is a no-op.
func (t *Tracer) NewSampler() *Sampler {
	if t == nil {
		return nil
	}
	return &Sampler{t: t}
}

// Now takes a Mark: the wall clock plus the cumulative allocation
// counter. Traced-path only — one mutex and one runtime/metrics read —
// but allocation-free, so stamping stays 0 allocs/op.
func (t *Tracer) Now() Mark {
	m := Mark{Nanos: time.Now().UnixNano()}
	if t == nil || !t.allocOK {
		return m
	}
	t.allocMu.Lock()
	metrics.Read(t.allocSample)
	m.Allocs = t.allocSample[0].Value.Uint64()
	t.allocMu.Unlock()
	return m
}

// arm initializes sp as a live span and stamps its ingress.
func (t *Tracer) arm(sp *Span, worker int) {
	*sp = Span{id: t.ids.Add(1), worker: int32(worker)}
	sp.StampAt(StageIngress, t.Now())
	t.armed.Inc()
}

// Counts reports the lifecycle counters. At quiescence
// armed == completed + aborted; the chaos tier asserts it.
func (t *Tracer) Counts() (armed, completed, aborted uint64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.armed.Load(), t.completed.Load(), t.aborted.Load()
}

// Complete finishes sp's trace at TX: stamps StageTx, attributes every
// visited segment into the per-stage histograms and alloc counters,
// publishes the full vector into the ring, records EvTrace, and clears
// the span so the mbuf recycles unarmed. No-op on nil tracer or unarmed
// span — completing twice is impossible because the first call disarms.
func (t *Tracer) Complete(sp *Span) {
	if t == nil || sp.id == 0 {
		return
	}
	sp.StampAt(StageTx, t.Now())
	var prevN int64
	var prevA uint64
	started := false
	for st := Stage(0); st < NumStages; st++ {
		n := sp.stamps[st]
		if n == 0 {
			continue
		}
		if started {
			d := n - prevN
			if d < 0 {
				d = 0 // wall clock read on another core stepped back
			}
			t.segLat[st].ObserveNanos(d)
			t.segAllocs[st].Add(sp.allocs[st] - prevA)
			t.segSamples[st].Inc()
		}
		prevN, prevA, started = n, sp.allocs[st], true
	}
	s, pos := t.ring.Claim()
	s.id.Store(sp.id)
	s.worker.Store(int64(sp.worker))
	for i := 0; i < int(NumStages); i++ {
		s.stamps[i].Store(sp.stamps[i])
		s.allocs[i].Store(sp.allocs[i])
	}
	t.ring.Publish(pos)
	t.completed.Inc()
	t.rec.Record(t.actor, telemetry.EvTrace, sp.id)
	*sp = Span{}
}

// Abort ends sp's trace without a TX: the packet was shed, dropped by an
// NF, lost to a faulting batch, or drained at shutdown. The truncated
// span surfaces as an EvTraceAbort flight-recorder event (arg = trace
// ID) and the span clears, so it can neither leak nor double-complete.
// No-op on nil tracer or unarmed span.
func (t *Tracer) Abort(sp *Span) {
	if t == nil || sp.id == 0 {
		return
	}
	t.aborted.Inc()
	t.rec.Record(t.actor, telemetry.EvTraceAbort, sp.id)
	*sp = Span{}
}

// RegisterMetrics exports the tracer's counters and per-stage segment
// histograms on reg: trace_armed/completed/aborted_total, and per stage
// trace_stage_latency_seconds, trace_stage_allocs_total,
// trace_stage_samples_total (labelled stage=<name>). StageIngress opens
// traces and has no segment, so it exports no series.
func (t *Tracer) RegisterMetrics(reg *telemetry.Registry, base telemetry.Labels) {
	if t == nil {
		return
	}
	reg.RegisterCounter("trace_armed_total", base, &t.armed)
	reg.RegisterCounter("trace_completed_total", base, &t.completed)
	reg.RegisterCounter("trace_aborted_total", base, &t.aborted)
	for st := StageIngress + 1; st < NumStages; st++ {
		labels := base.With("stage", st.String())
		reg.RegisterHistogram("trace_stage_latency_seconds", labels, &t.segLat[st])
		reg.RegisterCounter("trace_stage_allocs_total", labels, &t.segAllocs[st])
		reg.RegisterCounter("trace_stage_samples_total", labels, &t.segSamples[st])
	}
}

// Record is the dump-side form of one completed trace: the full absolute
// stamp vector. It round-trips through JSON exactly (the fuzz target
// asserts it).
type Record struct {
	ID     uint64            `json:"id"`
	Worker int32             `json:"worker"`
	Stamps [NumStages]int64  `json:"stamps_unix_nanos"`
	Allocs [NumStages]uint64 `json:"allocs"`
}

// Segment is one attributed hop of a trace: the time and allocation
// delta between a visited stage's stamp and the previous visited one.
type Segment struct {
	Stage  string `json:"stage"`
	Nanos  int64  `json:"nanos"`
	Allocs uint64 `json:"allocs"`
}

// Segments derives the per-stage latency vector from the absolute
// stamps, skipping stages the packet never visited. The first visited
// stage (ingress) anchors the walk with a zero-length segment.
func (r Record) Segments() []Segment {
	out := make([]Segment, 0, NumStages)
	var prevN int64
	var prevA uint64
	started := false
	for st := Stage(0); st < NumStages; st++ {
		n := r.Stamps[st]
		if n == 0 {
			continue
		}
		seg := Segment{Stage: st.String()}
		if started {
			seg.Nanos = n - prevN
			if seg.Nanos < 0 {
				seg.Nanos = 0
			}
			seg.Allocs = r.Allocs[st] - prevA
		}
		out = append(out, seg)
		prevN, prevA, started = n, r.Allocs[st], true
	}
	return out
}

// Total reports the trace's end-to-end latency: last visited stamp minus
// first.
func (r Record) Total() time.Duration {
	var first, last int64
	for st := Stage(0); st < NumStages; st++ {
		if n := r.Stamps[st]; n != 0 {
			if first == 0 {
				first = n
			}
			last = n
		}
	}
	d := last - first
	if last < first || d < 0 { // d < 0: the subtraction overflowed
		return 0
	}
	return time.Duration(d)
}

// Dump returns the ring's completed traces in completion order, oldest
// first, skipping slots observed mid-write. Dump allocates; it is a
// scrape-path operation.
func (t *Tracer) Dump() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, t.ring.Len())
	var r Record
	t.ring.Scan(func(_ uint64, s *traceSlot) {
		r = Record{ID: s.id.Load(), Worker: int32(s.worker.Load())}
		for i := 0; i < int(NumStages); i++ {
			r.Stamps[i] = s.stamps[i].Load()
			r.Allocs[i] = s.allocs[i].Load()
		}
	}, func() { out = append(out, r) })
	return out
}

// traceJSON is the human-facing /debug/traces shape: derived segments
// next to the raw record.
type traceJSON struct {
	ID      uint64    `json:"id"`
	Worker  int32     `json:"worker"`
	Start   string    `json:"start"`
	TotalNS int64     `json:"total_ns"`
	Stages  []Segment `json:"stages"`
}

// writeDisabled is what a nil tracer renders in place of either view.
func writeDisabled(w io.Writer) error {
	_, err := fmt.Fprintln(w, `{"enabled":false}`)
	return err
}

// writeIndented writes v as indented JSON, the shape both views share.
func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSON writes the completed-trace ring as JSON (what nf-pipeline
// serves at /debug/traces): lifecycle counters plus every dumped trace's
// per-stage latency vector, newest last. A nil tracer writes
// {"enabled":false}.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return writeDisabled(w)
	}
	armed, completed, aborted := t.Counts()
	recs := t.Dump()
	traces := make([]traceJSON, 0, len(recs))
	for _, r := range recs {
		start := ""
		if n := r.Stamps[StageIngress]; n != 0 {
			start = time.Unix(0, n).Format(time.RFC3339Nano)
		}
		traces = append(traces, traceJSON{
			ID:      r.ID,
			Worker:  r.Worker,
			Start:   start,
			TotalNS: int64(r.Total()),
			Stages:  r.Segments(),
		})
	}
	return writeIndented(w, map[string]any{
		"enabled":      true,
		"sample_every": t.every,
		"ring":         t.ring.Cap(),
		"armed":        armed,
		"completed":    completed,
		"aborted":      aborted,
		"traces":       traces,
	})
}

// allocJSON is one stage's row in /debug/alloc.
type allocJSON struct {
	Stage           string  `json:"stage"`
	Samples         uint64  `json:"samples"`
	AllocsTotal     uint64  `json:"allocs_total"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
}

// WriteAllocJSON writes per-stage allocation attribution as JSON (what
// nf-pipeline serves at /debug/alloc): for each stage, how many heap
// objects the process allocated during traced packets' transits of that
// stage, total and per packet — the MallocsPerOp view, sampled
// continuously instead of in a benchmark. A nil tracer writes
// {"enabled":false}.
func (t *Tracer) WriteAllocJSON(w io.Writer) error {
	if t == nil {
		return writeDisabled(w)
	}
	stages := make([]allocJSON, 0, NumStages)
	for st := StageIngress + 1; st < NumStages; st++ {
		row := allocJSON{
			Stage:       st.String(),
			Samples:     t.segSamples[st].Load(),
			AllocsTotal: t.segAllocs[st].Load(),
		}
		if row.Samples > 0 {
			row.AllocsPerPacket = float64(row.AllocsTotal) / float64(row.Samples)
		}
		stages = append(stages, row)
	}
	return writeIndented(w, map[string]any{
		"enabled": true,
		"metric":  allocMetric,
		"note":    "alloc deltas are process-wide over each traced packet's stage window; per-stage attribution is an estimate that sharpens with more samples",
		"stages":  stages,
	})
}
