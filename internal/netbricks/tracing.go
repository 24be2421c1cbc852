// Stage-clock plumbing for the sampled packet tracer: the hooks that
// stamp trace spans as batches move through pipelines, the runner, and
// domain mailboxes (see internal/telemetry/trace).
//
// The cost discipline mirrors the tracer's: when no tracer is attached
// every hook is a nil check; when one is attached but a batch carries no
// armed span, the per-batch cost is one scan at batch build plus a
// length check per stage. Only batches with sampled packets take a Mark
// and store stamps.
package netbricks

import (
	"repro/internal/telemetry/trace"
)

// scanTraced collects the batch's armed packets into the traced subset,
// so per-stage stamping iterates the (usually empty) subset instead of
// the whole batch. The runner calls it once at batch build, after ingress
// arming and before the first stage.
func (b *Batch) scanTraced() {
	b.traced = b.traced[:0]
	for _, p := range b.Pkts {
		if p != nil && p.Trace.Armed() {
			b.traced = append(b.traced, p)
		}
	}
}

// stampTraced stamps every armed span in the batch at st with one
// coherent Mark — the per-stage clock tick. Dropped packets stay in the
// traced subset until the runner frees them (their spans then abort), so
// a packet an NF drops still shows how far it got.
func stampTraced(t *trace.Tracer, b *Batch, st trace.Stage) {
	if t == nil || st >= trace.NumStages || len(b.traced) == 0 {
		return
	}
	m := t.Now()
	for _, p := range b.traced {
		p.Trace.StampAt(st, m)
	}
}

// stageIDsFor maps each operator's Name onto its stamp position.
// Operators outside the known NF set map to the NumStages sentinel and
// are never stamped.
func stageIDsFor(stages []Operator) []trace.Stage {
	ids := make([]trace.Stage, len(stages))
	for i, st := range stages {
		id, ok := trace.StageForName(st.Name())
		if !ok {
			id = trace.NumStages
		}
		ids[i] = id
	}
	return ids
}

// mailboxStageClock wires the tracer into a supervised worker's mailbox:
// the send hook stamps StageMailboxSend while the feeder still owns the
// payload, the recv hook stamps StageMailboxRecv as the domain dequeues
// it — so the segment between them is exactly the batch's queueing delay
// across the protection-domain boundary.
func mailboxStageClock(t *trace.Tracer) (onSend, onRecv func(*Batch)) {
	if t == nil {
		return nil, nil
	}
	return func(b *Batch) { stampTraced(t, b, trace.StageMailboxSend) },
		func(b *Batch) { stampTraced(t, b, trace.StageMailboxRecv) }
}
