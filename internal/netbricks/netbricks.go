// Package netbricks reimplements the slice of the NetBricks NF framework
// that the paper's §3 evaluation runs on: batches of packets retrieved
// from a (simulated) DPDK port and processed to completion through a
// pipeline of operators, where linear types ensure only one pipeline stage
// can access a batch at any time.
//
// Two pipeline drivers are provided:
//
//   - Pipeline passes batches between stages via plain function calls —
//     the baseline NetBricks architecture, which (as the paper notes) has
//     no fault containment or recovery; and
//   - IsolatedPipeline places every stage in its own sfi.Domain and
//     replaces the function calls with remote invocations that move the
//     batch across the protection boundary — the paper's experiment.
//
// The overhead difference between the two, divided by pipeline length, is
// the per-remote-invocation cost plotted in Figure 2.
//
// One runner drives either: ShardedRunner, one worker per receive queue
// (Workers: 1 is the paper's single-threaded run), inline or — with
// Supervise — each worker a supervised domain. See worker.go
// for the one per-batch step all of those configurations share.
package netbricks

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/linear"
	"repro/internal/packet"
	"repro/internal/sfi"
	"repro/internal/telemetry/trace"
)

// BurstPort is the driver contract the runner consumes: a multi-queue
// packet port polled and fed in bursts, DPDK PMD style. Two
// implementations exist — dpdk.Port (synthetic in-process traffic, the
// paper's measured code path) and netport.Port (a real UDP socket, so
// the bytes crossing the protection-domain boundary arrived from outside
// the process). The runner is written against this interface only;
// swapping the wire for the simulator changes no pipeline code.
//
// Semantics every implementation must provide:
//
//   - RxBurstQueue fills out with up to len(out) packets from queue q and
//     returns the count. A short (even zero) return is not end-of-stream;
//     callers poll again, exactly like a PMD. Flow affinity holds: every
//     packet of one flow surfaces on the same queue.
//   - TxBurstQueue transmits pkts from the worker owning queue q and
//     recycles their buffers; FreeQueue recycles without transmitting
//     (drops). Both tolerate nil entries.
//   - Queues reports the receive-queue count; each queue is safe to poll
//     concurrently with other queues.
//   - Drain consolidates undelivered descriptors and queue caches back
//     into the buffer pool once the workers have stopped, so pool-leak
//     accounting balances at end of run.
type BurstPort interface {
	Queues() int
	RxBurstQueue(q int, out []*packet.Packet) int
	TxBurstQueue(q int, pkts []*packet.Packet) int
	FreeQueue(q int, pkts []*packet.Packet)
	Drain()
}

// Batch is the unit of work: a burst of packets fetched from a port.
// Exactly one stage owns a batch at a time; the drivers enforce this by
// moving linear.Owned[*Batch] handles between stages.
type Batch struct {
	Pkts    []*packet.Packet
	Dropped []*packet.Packet // packets removed by filters, freed by the runner

	// traced is the subset of Pkts carrying an armed trace span,
	// collected once at batch build (scanTraced) so stage stamping never
	// rescans the batch. Empty on all but ~1/N batches.
	traced []*packet.Packet

	// loaded is every packet the runner loaded the batch with. Stages
	// never touch it: it is the packets' one route back to the pool when
	// the batch does not come out of the pipeline again (worker.serve).
	loaded []*packet.Packet
}

// reset empties the batch for reuse, keeping the slice capacity. Packet
// pointers left in the capacity tail are pool-owned and permanently live,
// so truncation is enough.
func (b *Batch) reset() {
	b.Pkts = b.Pkts[:0]
	b.Dropped = b.Dropped[:0]
	b.traced = b.traced[:0]
	b.loaded = b.loaded[:0]
}

// Drop removes the packet at index i (order not preserved) and records it
// for the runner to free.
func (b *Batch) Drop(i int) {
	b.Dropped = append(b.Dropped, b.Pkts[i])
	last := len(b.Pkts) - 1
	b.Pkts[i] = b.Pkts[last]
	b.Pkts[last] = nil
	b.Pkts = b.Pkts[:last]
}

// Operator is one pipeline stage. ProcessBatch mutates the batch in place
// and must not retain references to it after returning — ownership moves
// on to the next stage (the drivers enforce this for the isolated case and
// the direct case alike via the linear layer).
type Operator interface {
	// Name identifies the stage in errors and stats.
	Name() string
	// ProcessBatch processes every packet in the batch.
	ProcessBatch(b *Batch) error
}

// NullFilter forwards batches without touching them — the Figure 2
// measurement operator ("null-filters, which forward batches of packets
// without doing any work on them").
type NullFilter struct{}

// Name implements Operator.
func (NullFilter) Name() string { return "null-filter" }

// ProcessBatch implements Operator: it does no work.
func (NullFilter) ProcessBatch(*Batch) error { return nil }

// Parse parses every packet, dropping ones that fail.
type Parse struct{}

// Name implements Operator.
func (Parse) Name() string { return "parse" }

// ProcessBatch implements Operator.
func (Parse) ProcessBatch(b *Batch) error {
	for i := 0; i < len(b.Pkts); {
		if err := b.Pkts[i].Parse(); err != nil {
			b.Drop(i)
			continue
		}
		i++
	}
	return nil
}

// FaultInjector panics on the Nth batch it sees — the §3 recovery
// experiment "simulating a panic in the null-filter". One injector may
// sit in a stage that several workers call, so the count is atomic.
type FaultInjector struct {
	PanicOn int // 1-based batch index to panic on; 0 = never
	seen    atomic.Int64
}

// Name implements Operator.
func (f *FaultInjector) Name() string { return "fault-injector" }

// ProcessBatch implements Operator.
func (f *FaultInjector) ProcessBatch(*Batch) error {
	seen := int(f.seen.Add(1))
	if f.PanicOn != 0 && seen == f.PanicOn {
		panic(fmt.Sprintf("injected fault on batch %d", seen))
	}
	return nil
}

// Pipeline is the baseline NetBricks driver: stages invoked by direct
// function calls, batch handed off by moving the linear handle.
type Pipeline struct {
	stages []Operator

	// tracer, when set via SetTracer, stamps sampled trace spans after
	// each recognized stage; stageIDs caches the Name()→Stage mapping.
	tracer   *trace.Tracer
	stageIDs []trace.Stage
}

// SetTracer attaches the sampled packet tracer: after each stage whose
// name maps to a trace stage, the armed spans in the batch are stamped.
// Call before traffic; a nil tracer detaches.
func (p *Pipeline) SetTracer(t *trace.Tracer) { p.tracer = t }

// NewPipeline builds a direct-call pipeline.
func NewPipeline(stages ...Operator) *Pipeline {
	return &Pipeline{stages: stages, stageIDs: stageIDsFor(stages)}
}

// Process runs the batch through every stage. Ownership of the batch moves
// into Process and back out through the return value.
func (p *Pipeline) Process(b linear.Owned[*Batch]) (linear.Owned[*Batch], error) {
	for i, st := range p.stages {
		// Hand-off between stages is a move: the previous holder's handle
		// dies, exactly as NetBricks' linear types guarantee that "only
		// one pipeline stage can access the batch at any time".
		next, err := b.Move()
		if err != nil {
			return b, fmt.Errorf("pipeline stage %s: %w", st.Name(), err)
		}
		b = next
		var perr error
		if err := b.With(func(batch *Batch) {
			perr = st.ProcessBatch(batch)
			if perr == nil && p.tracer != nil {
				stampTraced(p.tracer, batch, p.stageIDs[i])
			}
		}); err != nil {
			return b, fmt.Errorf("pipeline stage %s: %w", st.Name(), err)
		}
		if perr != nil {
			return b, fmt.Errorf("pipeline stage %s: %w", st.Name(), perr)
		}
	}
	return b, nil
}

// IsolatedStage is one pipeline stage wrapped in its own protection
// domain.
type IsolatedStage struct {
	Domain *sfi.Domain
	RRef   *sfi.RRef[Operator]
}

// IsolatedPipeline runs every stage in a separate protection domain,
// replacing function calls with remote invocations (§3: "we use our SFI
// library to isolate every pipeline component in a separate protection
// domain").
type IsolatedPipeline struct {
	mgr    *sfi.Manager
	stages []*IsolatedStage

	// tracer/stageIDs mirror Pipeline's: stamps happen inside the stage
	// domain, right after a successful ProcessBatch, while the batch is
	// borrowed across the protection boundary.
	tracer   *trace.Tracer
	stageIDs []trace.Stage
}

// ErrStageFailed wraps a stage fault with its index.
var ErrStageFailed = errors.New("netbricks: stage failed")

// stageError is a stage fault: it wraps ErrStageFailed and the stage's
// own error (a caught panic wraps sfi.ErrDomainFailed). Its message is
// built only when read; the supervised runner never reads it.
type stageError struct {
	index int
	name  string
	err   error
}

func (e *stageError) Error() string {
	return fmt.Sprintf("stage %d (%s): %v: %v", e.index, e.name, ErrStageFailed, e.err)
}

func (e *stageError) Unwrap() []error { return []error{ErrStageFailed, e.err} }

// NewIsolatedPipeline exports each operator into a fresh domain under mgr.
// Each domain's recovery function re-exports a fresh operator produced by
// the corresponding factory (falling back to reusing the operator when no
// factory is given).
func NewIsolatedPipeline(mgr *sfi.Manager, stages []Operator, factories []func() Operator) (*IsolatedPipeline, error) {
	ip := &IsolatedPipeline{mgr: mgr, stageIDs: stageIDsFor(stages)}
	for i, op := range stages {
		d := mgr.NewDomain(fmt.Sprintf("stage-%d-%s", i, op.Name()))
		rref, err := sfi.Export[Operator](d, op)
		if err != nil {
			return nil, fmt.Errorf("export stage %d: %w", i, err)
		}
		slot := rref.Slot()
		var factory func() Operator
		if factories != nil && i < len(factories) && factories[i] != nil {
			factory = factories[i]
		} else {
			opCopy := op
			factory = func() Operator { return opCopy }
		}
		d.SetRecovery(func(d *sfi.Domain) error {
			return sfi.ExportAt[Operator](d, slot, factory())
		})
		ip.stages = append(ip.stages, &IsolatedStage{Domain: d, RRef: rref})
	}
	return ip, nil
}

// SetTracer attaches the sampled packet tracer (see Pipeline.SetTracer).
func (p *IsolatedPipeline) SetTracer(t *trace.Tracer) { p.tracer = t }

// Stages exposes the isolated stages (for fault-injection tests and the
// recovery benchmark).
func (p *IsolatedPipeline) Stages() []*IsolatedStage { return p.stages }

// Process runs the batch through every stage via remote invocation. The
// batch crosses each protection boundary by move — zero copies — and
// comes back the same way. If a stage panics, the batch is lost with the
// failed domain and an error wrapping ErrStageFailed and
// sfi.ErrDomainFailed is returned.
func (p *IsolatedPipeline) Process(b linear.Owned[*Batch]) (linear.Owned[*Batch], error) {
	for i, st := range p.stages {
		out, err := sfi.CallMove(st.RRef, "process", b,
			func(op Operator, batch linear.Owned[*Batch]) (linear.Owned[*Batch], error) {
				var perr error
				if err := batch.With(func(bb *Batch) {
					perr = op.ProcessBatch(bb)
					if perr == nil && p.tracer != nil {
						stampTraced(p.tracer, bb, p.stageIDs[i])
					}
				}); err != nil {
					return batch, err
				}
				return batch, perr
			})
		if err != nil {
			return linear.Owned[*Batch]{}, &stageError{index: i, name: st.Domain.Name(), err: err}
		}
		b = out
	}
	return b, nil
}

// Recover recovers every failed stage domain.
func (p *IsolatedPipeline) Recover() error {
	for _, st := range p.stages {
		if st.Domain.Failed() {
			if err := p.mgr.Recover(st.Domain); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunStats summarizes a runner session.
type RunStats struct {
	Batches   int
	Packets   uint64
	Drops     uint64
	Faults    int
	Recovered int
}

// Merge adds o's counters into s. This is the shared aggregation helper
// behind every multi-worker stats view (ShardedRunner.Snapshot and Run),
// the RunStats counterpart of
// domain.MergeSnapshots: each input is a point-in-time copy of monotonic
// per-worker counters, so the merged total is safe to take during a live
// run but not atomic across workers or fields.
func (s *RunStats) Merge(o RunStats) {
	s.Batches += o.Batches
	s.Packets += o.Packets
	s.Drops += o.Drops
	s.Faults += o.Faults
	s.Recovered += o.Recovered
}
