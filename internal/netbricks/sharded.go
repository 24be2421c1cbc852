// The runner: one worker per receive queue.
//
// The paper's §3 evaluation drives one pipeline from one thread
// (Workers: 1); real NF deployments scale out by giving each core its own
// receive queue and running an independent pipeline instance per core,
// with the NIC's RSS hash keeping every packet of one flow on the same
// core. It is safe by the same argument the paper makes for the single
// pipeline: a batch is linearly owned by exactly one stage of one worker
// at any time, so workers cannot race on packet data no matter how many
// run — ownership, not locking, is the synchronization.
//
// Everything per-worker is genuinely per-worker: the pipeline instance
// (operators and their state), the receive queue with its mempool cache,
// and the stats cell. The only shared structure on the hot path is the
// port's mempool, touched in amortized bursts through the per-queue
// caches.
package netbricks

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// WorkerStats holds one worker's counters — telemetry cells, so
// harnesses and metric scrapes can read them while the run is live; each
// cell is written by exactly one worker.
type WorkerStats struct {
	Batches   telemetry.Counter
	Packets   telemetry.Counter
	Drops     telemetry.Counter
	Faults    telemetry.Counter
	Recovered telemetry.Counter
	// IdlePolls counts receive polls that returned no packets (a quiet
	// wire, a dry pool, or an empty RSS partition).
	IdlePolls telemetry.Counter
	// Latency is the per-batch pipeline latency histogram: the time one
	// Process invocation took, faulted or not, measured at the worker.
	Latency telemetry.Histogram
}

// register exports the worker's counters and latency histogram on reg —
// a Registrar, so Run can batch every worker's group into one atomic
// install instead of letting a live scrape observe the re-registration
// half done.
func (w *WorkerStats) register(reg telemetry.Registrar, labels telemetry.Labels) {
	reg.RegisterCounter("worker_batches_total", labels, &w.Batches)
	reg.RegisterCounter("worker_packets_total", labels, &w.Packets)
	reg.RegisterCounter("worker_drops_total", labels, &w.Drops)
	reg.RegisterCounter("worker_faults_total", labels, &w.Faults)
	reg.RegisterCounter("worker_recovered_total", labels, &w.Recovered)
	reg.RegisterCounter("worker_idle_polls_total", labels, &w.IdlePolls)
	reg.RegisterHistogram("worker_batch_latency_seconds", labels, &w.Latency)
}

// Snapshot converts the counters into a RunStats.
func (w *WorkerStats) Snapshot() RunStats {
	return RunStats{
		Batches:   int(w.Batches.Load()),
		Packets:   w.Packets.Load(),
		Drops:     w.Drops.Load(),
		Faults:    int(w.Faults.Load()),
		Recovered: int(w.Recovered.Load()),
	}
}

// maxIdlePolls is how many consecutive empty receive polls a worker
// tolerates before concluding its queue has no more traffic.
const maxIdlePolls = 8

// ShardedRunner drives one multi-queue port with one worker goroutine
// per receive queue. Each worker owns a private pipeline instance (built
// by the factory, so per-stage NF state is sharded, never shared) and
// processes batches run-to-completion. RSS
// steering in the port guarantees flow affinity: per-flow state such as a
// load balancer's connection table is correct without any cross-worker
// coordination.
type ShardedRunner struct {
	Port      BurstPort // must expose at least Workers receive queues
	Workers   int
	BatchSize int
	// NewDirect and NewIsolated are alternatives; exactly one must be
	// set. The factory runs once per worker, before traffic starts.
	NewDirect   func(worker int) *Pipeline
	NewIsolated func(worker int) (*Pipeline, error)
	// AutoRecover makes workers recover their pipeline after a faulted
	// batch and continue, instead of stopping with the fault as their
	// error. (A panic in a direct pipeline of an unsupervised worker still
	// takes the process down: nothing contains it.)
	AutoRecover bool

	// Supervise runs every worker as a supervised domain (see
	// supervised.go): a feeder goroutine per queue sends batches into the
	// worker domain's mailbox, and a domain.Supervisor absorbs worker
	// faults — panics, pipeline errors, stalls — under Policy, restarting
	// workers while the rest keep forwarding. Supervised mode always
	// recovers (AutoRecover is implied).
	Supervise bool
	// Policy parameterizes the supervisor in supervised mode; the zero
	// value gets the domain package defaults.
	Policy domain.Policy
	// MailboxDepth is the per-worker inbox capacity in batches for
	// supervised mode (default 4).
	MailboxDepth int
	// NewState, when non-nil in supervised mode, gives each worker
	// domain its NF state for checkpointed recovery (§5): with
	// Policy.CheckpointEvery set, the worker's serving goroutine
	// snapshots the state periodically and a restart restores the last
	// good snapshot after the pipeline rebuild. The factory runs once
	// per worker, before traffic starts.
	NewState func(worker int) domain.Stateful

	// Registry, when non-nil, receives every worker's counters and batch
	// latency histogram at Run time (labels {worker=<n>}); in supervised
	// mode it also becomes the supervisor's registry (unless Policy
	// already names one), so domain, mailbox, and sfi metrics land on the
	// same registry. Re-running replaces the previous run's series.
	Registry *telemetry.Registry

	// Tracer, when non-nil, is attached to every worker's pipeline at
	// Run: sampled spans armed by the port are stamped at each
	// recognized stage, and in supervised mode the worker mailboxes
	// stamp the send/recv hops across the protection-domain boundary.
	Tracer *trace.Tracer

	stats []*WorkerStats
	sup   atomic.Pointer[domain.Supervisor]
}

// WorkerSnapshots reports per-worker stats for the most recent Run (live
// values while a run is in progress).
func (r *ShardedRunner) WorkerSnapshots() []RunStats {
	out := make([]RunStats, len(r.stats))
	for i, ws := range r.stats {
		out[i] = ws.Snapshot()
	}
	return out
}

// Snapshot aggregates the per-worker counters into one RunStats via
// RunStats.Merge, with the same semantics as domain.Supervisor.Snapshot
// (see domain.MergeSnapshots): a point-in-time copy of monotonically
// increasing atomics, safe to take while a run is live, never blocking
// the hot path.
func (r *ShardedRunner) Snapshot() RunStats {
	var agg RunStats
	for _, s := range r.WorkerSnapshots() {
		agg.Merge(s)
	}
	return agg
}

// Run processes up to n batches on every worker and returns the
// aggregated stats and the workers' errors, joined: a worker that stopped
// on a fault (inline, without AutoRecover) or that exhausted its restart
// budget (supervised) leaves the rest of its queue unserved, and the run
// says so. On return the port has been drained: every buffer is back in
// the pool (or a queue cache), so pool-leak accounting balances. A
// supervised run returns only once every batch is home, one whose serve a
// hang verdict abandoned included, so a stage call that never returns
// holds Run.
func (r *ShardedRunner) Run(n int) (RunStats, error) { return r.run(n, sim.Wall{}) }

// run is Run with its supervisor on clk.
func (r *ShardedRunner) run(n int, clk sim.Clock) (RunStats, error) {
	if r.Workers <= 0 {
		return RunStats{}, errors.New("netbricks: workers must be positive")
	}
	if r.BatchSize <= 0 {
		return RunStats{}, errors.New("netbricks: BatchSize must be positive")
	}
	if (r.NewDirect == nil) == (r.NewIsolated == nil) {
		return RunStats{}, errors.New("netbricks: set exactly one of NewDirect or NewIsolated")
	}
	if r.Port == nil {
		return RunStats{}, errors.New("netbricks: Port must be set")
	}
	if r.Port.Queues() < r.Workers {
		return RunStats{}, errors.New("netbricks: port has fewer RX queues than workers")
	}
	if !r.Supervise && (r.NewState != nil || r.Policy.CheckpointEvery > 0 || r.Policy.Persist != nil) {
		return RunStats{}, errors.New("netbricks: NewState, Policy.CheckpointEvery and Policy.Persist checkpoint supervised worker domains; set Supervise")
	}
	r.stats = make([]*WorkerStats, r.Workers)
	// Register every worker's series in one transaction: Run may be
	// re-registering over a previous run's series while the metrics
	// endpoint serves, and a scrape must never see the generations mixed.
	txn := r.Registry.Begin()
	for w := range r.stats {
		r.stats[w] = &WorkerStats{}
		r.stats[w].register(txn, telemetry.Labels{"worker": strconv.Itoa(w)})
	}
	txn.Commit()
	// depth is how many batches queue between a worker's rx and its serve:
	// a mailbox's worth under supervision, none inline.
	depth := 0
	if r.Supervise {
		if depth = r.MailboxDepth; depth <= 0 {
			depth = 4
		}
	}
	workers := make([]*worker, r.Workers)
	for q := range workers {
		w, err := r.newWorker(q, depth)
		if err != nil {
			return RunStats{}, err
		}
		workers[q] = w
	}
	var errs []error
	if r.Supervise {
		errs = r.runSupervised(workers, depth, n, clk)
	} else {
		errs = make([]error, r.Workers)
		var wg sync.WaitGroup
		for q, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[q] = w.run(n)
			}()
		}
		wg.Wait()
	}
	r.Port.Drain()
	return r.Snapshot(), errors.Join(errs...)
}
