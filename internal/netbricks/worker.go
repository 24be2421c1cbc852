// The one per-batch step. Every configuration of ShardedRunner — direct
// or isolated stages, inline or supervised workers — is the same three
// functions on a worker: rx fetches the next batch from the worker's
// queue, serve runs it through the pipeline and settles it (stats,
// transmit, free, recycle — see DESIGN.md, "One runner", for who frees
// the packets on each exit), recover brings the pipeline back after a
// fault. The configurations differ only in who calls them.
package netbricks

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linear"
	"repro/internal/packet"
)

// worker is one receive queue's share of a run: its private pipeline
// (operators and their state are never shared between workers), its
// stats cell and its free-list of batch storage.
type worker struct {
	r     *ShardedRunner
	q     int
	stats *WorkerStats
	free  *batchRecycler
	buf   []*packet.Packet // rx scratch, touched only by the goroutine calling rx

	// pipe is swapped by recover, which under supervision runs on the
	// monitor goroutine while a hung serve the supervisor abandoned may
	// still be inside the old pipeline.
	pipe atomic.Pointer[workerPipeline]
}

// workerPipeline is one build of the worker's pipeline.
type workerPipeline struct {
	p *Pipeline
	// serving counts serve calls inside p. recover runs between
	// generations, so a nonzero count there is a serve the supervisor
	// abandoned (hung, or a superseded sibling) that is still running.
	// It counts per build, not per pipeline: a factory may return the
	// same pipeline twice.
	serving atomic.Int32
}

// newWorker builds worker q with its pipeline. depth is how many batches
// may queue between rx and serve (a mailbox's worth under supervision,
// none inline); the free-list covers those plus the one being loaded and
// the one being served.
func (r *ShardedRunner) newWorker(q, depth int) (*worker, error) {
	w := &worker{
		r: r, q: q, stats: r.stats[q],
		free: &batchRecycler{cells: make([]recycledCell, 0, depth+2)},
		buf:  make([]*packet.Packet, r.BatchSize),
	}
	return w, w.build()
}

// build constructs the worker's pipeline from the runner's factory. This
// is the only place a tracer is attached.
func (w *worker) build() error {
	var p *Pipeline
	if w.r.NewDirect != nil {
		p = w.r.NewDirect(w.q)
	} else {
		var err error
		if p, err = w.r.NewIsolated(w.q); err != nil {
			return err
		}
	}
	p.SetTracer(w.r.Tracer)
	w.pipe.Store(&workerPipeline{p: p})
	return nil
}

// rx polls the worker's queue until it yields a batch, loaded into
// recycled storage. ok is false once maxIdlePolls consecutive polls came
// back empty: the queue has no more traffic.
func (w *worker) rx() (msg linear.Owned[*Batch], ok bool) {
	for idle := 0; idle < maxIdlePolls; idle++ {
		if got := w.r.Port.RxBurstQueue(w.q, w.buf); got > 0 {
			return w.free.load(w.buf[:got], w.r.Tracer != nil), true
		}
		w.stats.IdlePolls.Add(1)
	}
	return msg, false
}

// serve runs one batch through the pipeline and settles it, whichever way
// the pipeline returns. It notes the batch storage while the batch is
// still ours: once ownership moves into the pipeline, the storage's list
// of loaded packets is the only route the packets have back to the pool
// if the batch never comes out again. Exactly one of these happens per
// call:
//
//   - processed: the forwarded packets are transmitted, the dropped ones
//     freed, the storage recycled;
//   - fault with the batch still in hand (a stage returned an error in a
//     direct pipeline, or the pipeline never took it): every packet in it
//     is freed and the storage recycled;
//   - fault with the batch lost — inside a failed stage domain, or to a
//     panic unwinding through a direct pipeline (re-raised once settled):
//     the loaded packets are freed, and the storage goes back on the
//     free list under a fresh cell (the lost handle's cell is still live,
//     so it cannot be renewed).
//
// So a caller never owes the pool anything after serve, and nothing is
// freed twice: msg is dead on return, and a domain entry point that looks
// for an abandoned payload to reclaim finds none. A lost batch's storage
// is safe to reuse because settle runs on the goroutine that served it,
// once the pipeline has returned or the panic has unwound to here: the
// stages do not keep a batch past their call, so nothing reaches it any
// more. A serve abandoned by a hang verdict reaches settle only when its
// stuck call returns, so until then its batch stays out of the free list
// its successor loads from.
func (w *worker) serve(msg linear.Owned[*Batch]) (err error) {
	var batch *Batch
	if err = msg.With(func(b *Batch) { batch = b }); err != nil {
		return err // not ours to settle
	}
	var out linear.Owned[*Batch]
	defer func() {
		p := recover()
		faulted := p != nil || err != nil
		if faulted {
			w.stats.Faults.Add(1)
		}
		w.settle(out, msg, batch, faulted)
		if p != nil {
			panic(p)
		}
	}()
	start := time.Now()
	pipe := w.pipe.Load()
	pipe.serving.Add(1)
	defer pipe.serving.Add(-1)
	out, err = pipe.p.Process(msg)
	w.stats.Latency.ObserveNanos(int64(time.Since(start)))
	return err
}

// settle is serve's one exit: transmit or free the packets of whichever
// of out and msg still holds the batch, and put its storage back on the
// free list. When neither does, batch — the storage msg carried in — was
// lost inside the pipeline.
func (w *worker) settle(out, msg linear.Owned[*Batch], batch *Batch, faulted bool) {
	port, q, ws := w.r.Port, w.q, w.stats
	held := out
	if !held.Valid() {
		held = msg
	}
	if !held.Valid() {
		port.FreeQueue(q, batch.loaded)
		w.free.put(linear.Owned[*Batch]{}, batch)
		return
	}
	b, err := held.Into()
	if err != nil {
		port.FreeQueue(q, batch.loaded) // held but unusable: free the packets, drop the storage
		return
	}
	if faulted {
		port.FreeQueue(q, b.Pkts)
	} else {
		ws.Batches.Add(1)
		ws.Packets.Add(uint64(len(b.Pkts)))
		ws.Drops.Add(uint64(len(b.Dropped)))
		port.TxBurstQueue(q, b.Pkts)
	}
	port.FreeQueue(q, b.Dropped)
	w.free.put(held, b)
}

// recover brings the pipeline back after a fault serve reported: failed
// stage domains recover in place. A pipeline with no domains is rebuilt
// instead, operator state reinitialized from clean exactly like a
// re-exported stage after §3 recovery. So is one a serve is still inside:
// that serve was abandoned mid-call and may hold a bound stage instance,
// and recovering the stage in place would retire the instance under it,
// so the next generation gets a pipeline of its own and the abandoned
// call finishes in the old one.
func (w *worker) recover() error {
	wp := w.pipe.Load()
	var err error
	if len(wp.p.domains) == 0 || wp.serving.Load() > 0 {
		err = w.build()
	} else {
		err = wp.p.Recover()
	}
	if err != nil {
		return err
	}
	w.stats.Recovered.Add(1)
	return nil
}

// run is the inline driver: the worker's own goroutine fetches, serves
// and (with AutoRecover) recovers, run-to-completion — the paper's
// execution model ("processes the batch to completion before starting
// the next batch"). A faulted batch counts against the budget of n.
func (w *worker) run(n int) error {
	for i := 0; i < n; i++ {
		msg, ok := w.rx()
		if !ok {
			return nil
		}
		if err := w.serve(msg); err != nil {
			if !w.r.AutoRecover {
				return err
			}
			if rerr := w.recover(); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// batchRecycler is one worker's free-list of batch storage: the *Batch
// object with its packet slices and the linear cell that carried it
// (revived with Renew, so stale handles still fail the generation check).
// rx and serve exchange entries through it, making steady-state
// forwarding allocation-free per batch. A batch lost to a fault comes back
// without its cell, so the next load of it pays for one fresh cell. The mutex is for
// supervised workers, where rx and serve run on different goroutines and
// a hung serve the supervisor abandoned may still be running beside its
// successor.
type batchRecycler struct {
	mu    sync.Mutex
	cells []recycledCell
}

type recycledCell struct {
	cell  linear.Owned[*Batch]
	batch *Batch
}

// load fills recycled (or fresh) storage from pkts and wraps it in a live
// handle.
func (rc *batchRecycler) load(pkts []*packet.Packet, traced bool) linear.Owned[*Batch] {
	var e recycledCell
	rc.mu.Lock()
	if n := len(rc.cells); n > 0 {
		e, rc.cells[n-1] = rc.cells[n-1], recycledCell{}
		rc.cells = rc.cells[:n-1]
	}
	rc.mu.Unlock()
	b := e.batch
	if b == nil {
		b = &Batch{}
	}
	b.Pkts = append(b.Pkts[:0], pkts...)
	b.loaded = append(b.loaded[:0], pkts...)
	if traced {
		b.scanTraced()
	}
	if e.cell != (linear.Owned[*Batch]{}) {
		if o, err := e.cell.Renew(b); err == nil {
			return o
		}
	}
	return linear.New(b)
}

// put stores a consumed handle (or the zero handle, for a batch whose cell
// was lost with it) and its settled batch for the next load.
func (rc *batchRecycler) put(cell linear.Owned[*Batch], b *Batch) {
	b.reset()
	rc.mu.Lock()
	if len(rc.cells) < cap(rc.cells) {
		rc.cells = append(rc.cells, recycledCell{cell: cell, batch: b})
	}
	rc.mu.Unlock()
}
