// Package repro's root benchmark harness: one testing.B benchmark per
// table/figure in the paper's evaluation, plus the ablations DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Figure 2, the §3 recovery cost and Figure 3 are each built once here, by
// a setup that returns one iteration of the measurement (a step). The
// benchmarks run the step b.N times; the claim tests in claims_test.go time
// the same step, assert the paper's shape and print its tables:
//
//	go test -run TestClaim -v .
package repro

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/domain/faultinject"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/ifc"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/minirust"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sfi"
)

// runSteps is the b.N loop of a benchmark whose iteration is one step.
func runSteps(b *testing.B, step func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2: remote-invocation overhead vs. batch size ---------------

// paperBatchSizes are the batch sizes on Figure 2's x-axis.
var paperBatchSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// figure2Stages is the pipeline length Figure 2 is reported for.
const figure2Stages = 5

// rxBatch pulls one batch of size packets, round-robin over flows flows,
// from a fresh simulated port.
func rxBatch(size, flows int) *netbricks.Batch {
	port := dpdk.NewPort(dpdk.Config{PoolSize: size + 64, QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), flows, 1)})
	pkts := make([]*packet.Packet, size)
	n := port.RxBurst(pkts)
	return &netbricks.Batch{Pkts: pkts[:n]}
}

// nullPipeline is Figure 2's subject: stages null filters, called directly
// or each in its own protection domain, over one batch of batchSize
// packets. The step hands the batch to the pipeline and takes it back.
func nullPipeline(tb testing.TB, stages, batchSize int, isolated bool) func() error {
	tb.Helper()
	batch := rxBatch(batchSize, 1)
	ops := make([]netbricks.Operator, stages)
	for i := range ops {
		ops[i] = netbricks.NullFilter{}
	}
	if !isolated {
		pl := netbricks.NewPipeline(ops...)
		return func() error { return consume(pl.Process(linear.New(batch))) }
	}
	iso, err := netbricks.NewIsolatedPipeline(sfi.NewManager(), ops, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return func() error { return consume(iso.Process(linear.New(batch))) }
}

// consume takes a batch back out of a pipeline's result.
func consume(out linear.Owned[*netbricks.Batch], err error) error {
	if err == nil {
		_, err = out.Into()
	}
	return err
}

// maglevBatch is Figure 2's reference line, the per-batch cost of a
// realistic, lightweight NF: Maglev over 16 backends, one batch of
// batchSize packets from 1024 flows.
func maglevBatch(tb testing.TB, batchSize int) func() error {
	tb.Helper()
	batch := rxBatch(batchSize, 1024)
	backends := make([]maglev.Backend, 16)
	for i := range backends {
		backends[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
	if err != nil {
		tb.Fatal(err)
	}
	op := maglev.Operator{LB: lb}
	return func() error { return op.ProcessBatch(batch) }
}

// BenchmarkFigure2Direct is the unprotected baseline at every paper batch
// size (function calls between stages).
func BenchmarkFigure2Direct(b *testing.B) {
	for _, bs := range paperBatchSizes {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			runSteps(b, nullPipeline(b, figure2Stages, bs, false))
		})
	}
}

// BenchmarkFigure2Isolated is the same pipeline with one protection
// domain per stage (remote invocations). (Isolated − Direct)/5 is the
// per-invocation overhead Figure 2 plots.
func BenchmarkFigure2Isolated(b *testing.B) {
	for _, bs := range paperBatchSizes {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			runSteps(b, nullPipeline(b, figure2Stages, bs, true))
		})
	}
}

// BenchmarkFigure2Maglev is the Maglev reference line of Figure 2.
func BenchmarkFigure2Maglev(b *testing.B) {
	for _, bs := range paperBatchSizes {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			runSteps(b, maglevBatch(b, bs))
		})
	}
}

// --- Sharded runtime: multi-worker throughput scaling -------------------

// benchSharded measures aggregate packet throughput through the sharded
// runtime at a given worker count. The port runs in RSS-partitioned mode
// (each queue's generator only emits flows that hash to that queue, like
// hardware RSS) so packet generation adds no cross-worker contention and
// the measurement isolates the runtime itself: per-worker pipelines,
// per-queue mempool caches, and linear batch handoff. Scaling beyond one
// worker requires GOMAXPROCS >= workers.
func benchSharded(b *testing.B, workers int, isolated bool) {
	b.Helper()
	const batchSize = 32
	const batchesPerWorker = 64
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: workers * 512,
		RxQueues: workers,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 4096, workers),
	})
	ops := func() []netbricks.Operator {
		return []netbricks.Operator{netbricks.Parse{}, netbricks.NullFilter{}, netbricks.NullFilter{}}
	}
	r := &netbricks.ShardedRunner{Port: port, Workers: workers, BatchSize: batchSize}
	if isolated {
		r.NewIsolated = func(int) (*netbricks.Pipeline, error) {
			return netbricks.NewIsolatedPipeline(sfi.NewManager(), ops(), nil)
		}
	} else {
		r.NewDirect = func(int) *netbricks.Pipeline {
			return netbricks.NewPipeline(ops()...)
		}
	}
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := r.Run(batchesPerWorker)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Packets == 0 {
			b.Fatal("no packets processed")
		}
		total += stats.Packets
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkShardedDirect is throughput scaling for unprotected per-worker
// pipelines: the paper's §3 experiment extended across cores.
func BenchmarkShardedDirect(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSharded(b, w, false)
		})
	}
}

// BenchmarkShardedIsolated is the same scaling sweep with every stage of
// every worker in its own protection domain — isolation overhead must not
// grow with worker count, since domains share nothing across workers.
func BenchmarkShardedIsolated(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchSharded(b, w, true)
		})
	}
}

// --- Supervised runtime: steady-state vs. faulting throughput -----------

// crashOp injects seeded probabilistic panics into the hot path, driving
// the supervised runtime's full fault loop: panic → teardown → backoff →
// recovery → rref re-bind. A nil injector makes it a null stage.
type crashOp struct{ inj *faultinject.Injector }

func (crashOp) Name() string { return "crash" }

func (c crashOp) ProcessBatch(*netbricks.Batch) error {
	if c.inj != nil {
		c.inj.Point("bench")
	}
	return nil
}

// benchSupervised measures aggregate throughput with every worker running
// as a supervised protection domain, at a given per-batch crash
// probability. The deltas against crashProb=0 (and against
// BenchmarkShardedIsolated, the same pipeline without supervision) price
// the supervision machinery and the fault path respectively.
func benchSupervised(b *testing.B, crashProb float64) {
	b.Helper()
	const workers = 4
	const batchSize = 32
	const batchesPerWorker = 64
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: workers * 512,
		RxQueues: workers,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 4096, workers),
	})
	var inj *faultinject.Injector
	if crashProb > 0 {
		inj = faultinject.New(1)
		inj.PanicProb = crashProb
	}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: batchSize,
		Supervise: true,
		Policy: domain.Policy{
			Backoff:     20 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			MaxRestarts: -1,
		},
		NewIsolated: func(int) (*netbricks.Pipeline, error) {
			return netbricks.NewIsolatedPipeline(sfi.NewManager(),
				[]netbricks.Operator{netbricks.Parse{}, crashOp{inj: inj}, netbricks.NullFilter{}},
				[]func() netbricks.Operator{nil, func() netbricks.Operator { return crashOp{inj: inj} }, nil})
		},
	}
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := r.Run(batchesPerWorker)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Packets == 0 {
			b.Fatal("no packets processed")
		}
		total += stats.Packets
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pkts/s")
	if sn, ok := r.SupervisorSnapshot(); crashProb > 0 && (!ok || sn.Restarts == 0) {
		b.Fatal("faulting bench drove no restarts")
	}
}

// BenchmarkSupervisedPipeline is the steady/faulting sweep: supervision
// overhead at zero faults, then throughput under 1% and 5% injected
// crash rates (alloc-gate holds the steady case's allocs/op).
func BenchmarkSupervisedPipeline(b *testing.B) {
	cases := []struct {
		name string
		prob float64
	}{
		{"steady", 0},
		{"crash=1pct", 0.01},
		{"crash=5pct", 0.05},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchSupervised(b, c.prob) })
	}
}

// --- §3 scalar: recovery cost ------------------------------------------

// domainRecovery is §3's recovery experiment (paper: 4389 cycles): the step
// faults a call into a null-filter domain, which clears its reference
// table, and re-creates the domain from clean state.
func domainRecovery(tb testing.TB) func() error {
	tb.Helper()
	mgr := sfi.NewManager()
	d := mgr.NewDomain("null-filter")
	rref, err := sfi.Export[netbricks.Operator](d, netbricks.NullFilter{})
	if err != nil {
		tb.Fatal(err)
	}
	slot := rref.Slot()
	d.SetRecovery(func(d *sfi.Domain) error {
		return sfi.ExportAt[netbricks.Operator](d, slot, netbricks.NullFilter{})
	})
	return func() error {
		if err := rref.Call("p", func(netbricks.Operator) error { panic("injected") }); err == nil {
			return errors.New("injected panic not caught")
		}
		return mgr.Recover(d)
	}
}

// BenchmarkRecovery measures catching an injected panic, clearing the
// failed domain's reference table, and re-creating the domain from clean
// state.
func BenchmarkRecovery(b *testing.B) {
	runSteps(b, domainRecovery(b))
}

// --- §4: verification cost ----------------------------------------------

// BenchmarkIFCVerifyPaperListing measures the full static pipeline
// (parse → types → borrowck → abstract interpretation) on the paper's
// Buffer listing.
func BenchmarkIFCVerifyPaperListing(b *testing.B) {
	src := minirust.PaperBufferProgram(true, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := minirust.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		checked, err := minirust.Check(prog)
		if err != nil {
			b.Fatal(err)
		}
		if err := minirust.BorrowCheck(checked); err != nil {
			b.Fatal(err)
		}
		lat, err := ifc.ForProgram(prog)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ifc.Analyze(checked, lat)
		if err != nil {
			b.Fatal(err)
		}
		if res.OK() {
			b.Fatal("leak not found")
		}
	}
}

// --- Figure 3: checkpointing --------------------------------------------

// figure3Modes are Figure 3's arms: the paper's flag inside Rc, the
// duplicating traversal of Figure 3b, and the conventional visited set.
var figure3Modes = []checkpoint.Mode{checkpoint.RcAware, checkpoint.Naive, checkpoint.VisitedSet}

// buildFirewallDB builds a DB of rules distinct rules, each attached under
// share prefixes (share > 1 is Figure 3a's several leaves per rule).
func buildFirewallDB(tb testing.TB, rules, share int) *firewall.DB {
	tb.Helper()
	db := firewall.NewDB(firewall.Deny)
	for r := 0; r < rules; r++ {
		base := packet.Addr(10, byte(r/256), byte(r%256), 0)
		h, err := db.AddRule(base, 24, firewall.Rule{ID: r, Action: firewall.Allow, Comment: fmt.Sprintf("rule %d", r)})
		if err != nil {
			tb.Fatal(err)
		}
		for s := 1; s < share; s++ {
			alias := packet.Addr(172, byte((r*7+s)/256%256), byte((r*7+s)%256), 0)
			if err := db.AttachRule(alias, 24, h); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// figure3Checkpoint is Figure 3's subject: the step checkpoints a
// rules × share DB under mode and leaves the snapshot in *last.
func figure3Checkpoint(tb testing.TB, rules, share int, mode checkpoint.Mode, last **checkpoint.Snapshot) func() error {
	db := buildFirewallDB(tb, rules, share)
	eng := checkpoint.NewEngine(mode)
	return func() (err error) {
		*last, err = db.Checkpoint(eng)
		return err
	}
}

// BenchmarkFigure3Checkpoint measures checkpointing a 1000-rule firewall
// database (sharing factor 3) under each aliasing mode.
func BenchmarkFigure3Checkpoint(b *testing.B) {
	for _, mode := range figure3Modes {
		b.Run(mode.String(), func(b *testing.B) {
			var snap *checkpoint.Snapshot
			runSteps(b, figure3Checkpoint(b, 1000, 3, mode, &snap))
		})
	}
}

// BenchmarkFigure3Restore measures restoring the database from a
// snapshot.
func BenchmarkFigure3Restore(b *testing.B) {
	snap, err := buildFirewallDB(b, 1000, 3).Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		b.Fatal(err)
	}
	runSteps(b, func() error {
		var out *firewall.DB
		return snap.Restore(&out)
	})
}

// --- §5→§3: checkpointed stateful recovery ------------------------------

// benchCheckpointed measures aggregate supervised-pipeline throughput
// (parse → firewall → maglev → session) with per-worker NF state
// snapshotted at the given epoch; epoch 0 is the no-checkpointing
// baseline. The 10ms/off delta prices the steady-state checkpoint tax
// (acceptance: ≤ 15%); 100ms shows the epoch-length lever.
func benchCheckpointed(b *testing.B, epoch time.Duration) {
	b.Helper()
	const workers = 4
	const batchSize = 32
	// Long enough per Run that the epoch fires several times inside it
	// (tens of ms for a 10ms epoch, ten times that for 100ms) — domains
	// are fresh per Run, so a shorter run would never checkpoint at all
	// and the bench would price nothing.
	batchesPerWorker := 1000
	if epoch > 10*time.Millisecond {
		batchesPerWorker *= int(epoch / (10 * time.Millisecond))
	}
	// 1024 flows ≈ 256 session entries per worker: capture cost scales
	// with state size, so the epoch tax below is per-256-flows-worker;
	// BenchmarkCheckpointRestoreSession prices the big-graph traversal
	// separately.
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: workers * 512,
		RxQueues: workers,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 1024, workers),
	})
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		b.Fatal(err)
	}
	backends := []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
	tables := make([]*session.Table, workers)
	balancers := make([]*maglev.Balancer, workers)
	for w := 0; w < workers; w++ {
		tables[w] = session.NewTable()
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			b.Fatal(err)
		}
		balancers[w] = lb
	}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: batchSize,
		Supervise: true,
		Policy: domain.Policy{
			Backoff:         20 * time.Microsecond,
			MaxBackoff:      time.Millisecond,
			MaxRestarts:     -1,
			CheckpointEvery: epoch,
		},
		NewIsolated: func(w int) (*netbricks.Pipeline, error) {
			return netbricks.NewIsolatedPipeline(sfi.NewManager(),
				[]netbricks.Operator{
					netbricks.Parse{},
					firewall.Operator{DB: db},
					maglev.Operator{LB: balancers[w]},
					session.Operator{T: tables[w]},
				},
				[]func() netbricks.Operator{nil, nil, nil, nil})
		},
		NewState: func(w int) domain.Stateful {
			return domain.NewStateSet().
				Add("maglev", balancers[w]).
				Add("session", tables[w])
		},
	}
	var total uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := r.Run(batchesPerWorker)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Packets == 0 {
			b.Fatal("no packets processed")
		}
		total += stats.Packets
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "pkts/s")
	sn, ok := r.SupervisorSnapshot()
	if !ok {
		b.Fatal("no supervisor snapshot")
	}
	if epoch > 0 && sn.Checkpoints == 0 {
		b.Fatal("checkpointing bench took no checkpoints; nothing was priced")
	}
	// The snapshot covers the final Run only (each Run boots fresh
	// domains), so this is checkpoint epochs per run, all workers.
	b.ReportMetric(float64(sn.Checkpoints), "ckpts/run")
}

// BenchmarkCheckpointedPipeline is the epoch sweep: checkpointing off,
// the 10ms acceptance point, and the relaxed 100ms epoch (alloc-gate
// holds each case's allocs/op).
func BenchmarkCheckpointedPipeline(b *testing.B) {
	cases := []struct {
		name  string
		epoch time.Duration
	}{
		{"epoch=off", 0},
		{"epoch=10ms", 10 * time.Millisecond},
		{"epoch=100ms", 100 * time.Millisecond},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) { benchCheckpointed(b, c.epoch) })
	}
}

// everyNth panics on every nth batch it sees (never when n is 0). The
// count lives outside the operator because stage recovery rebuilds the
// operator from its factory.
type everyNth struct {
	seen *int
	n    int
}

func (everyNth) Name() string { return "fault" }

func (o everyNth) ProcessBatch(*netbricks.Batch) error {
	if *o.seen++; o.n > 0 && *o.seen%o.n == 0 {
		panic("bench: injected fault")
	}
	return nil
}

// chaosWorkers is mem-chaos's worker count, which chaosRunner keeps.
const chaosWorkers = 2

// chaosRunner is nfbench's mem-chaos in miniature: chaosWorkers
// supervised workers over 4096 established flows and 8 backends, each a
// five-stage isolated pipeline (parse, a stage that panics on every
// faultEvery-th batch, firewall, maglev, session) whose maglev and
// session state is checkpointed every 10ms and restored on each restart.
// faultEvery 0 is the same runner with a stage that never panics: the
// twin a fault's cost is measured against. The runner comes back after
// one Run of batchesPerWorker batches per worker, which establishes the
// flows and sizes the tables.
func chaosRunner(tb testing.TB, faultEvery, batchesPerWorker int) *netbricks.ShardedRunner {
	tb.Helper()
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: chaosWorkers * 512,
		RxQueues: chaosWorkers,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 4096, chaosWorkers),
	})
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		tb.Fatal(err)
	}
	backends := make([]maglev.Backend, 8)
	for i := range backends {
		backends[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	tables := make([]*session.Table, chaosWorkers)
	balancers := make([]*maglev.Balancer, chaosWorkers)
	seen := make([]int, chaosWorkers)
	for w := range tables {
		tables[w] = session.NewTable()
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			tb.Fatal(err)
		}
		balancers[w] = lb
	}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: chaosWorkers, BatchSize: 32,
		Supervise: true,
		Policy: domain.Policy{
			Backoff:         20 * time.Microsecond,
			MaxBackoff:      time.Millisecond,
			MaxRestarts:     -1,
			CheckpointEvery: 10 * time.Millisecond,
		},
		NewIsolated: func(w int) (*netbricks.Pipeline, error) {
			fault := func() netbricks.Operator { return everyNth{seen: &seen[w], n: faultEvery} }
			return netbricks.NewIsolatedPipeline(sfi.NewManager(),
				[]netbricks.Operator{
					netbricks.Parse{},
					fault(),
					firewall.Operator{DB: db},
					maglev.Operator{LB: balancers[w]},
					session.Operator{T: tables[w]},
				},
				[]func() netbricks.Operator{nil, fault, nil, nil, nil})
		},
		NewState: func(w int) domain.Stateful {
			return domain.NewStateSet().
				Add("maglev", balancers[w]).
				Add("session", tables[w])
		},
	}
	if _, err := r.Run(batchesPerWorker); err != nil {
		tb.Fatal(err)
	}
	return r
}

// chaosCost is what runs of a chaosRunner allocated, and the faults and
// restores they took.
type chaosCost struct {
	mallocs, bytes, faults, restores uint64
}

// chaosRuns runs r runs times over batchesPerWorker batches per worker
// and counts what those runs allocate. Each Run boots fresh domains, and
// every Run is checked to have restored on every restart.
func chaosRuns(tb testing.TB, r *netbricks.ShardedRunner, runs, batchesPerWorker int) chaosCost {
	tb.Helper()
	var c chaosCost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := r.Run(batchesPerWorker); err != nil {
			tb.Fatal(err)
		}
		sn, ok := r.SupervisorSnapshot()
		if !ok || sn.ColdStarts != 0 || sn.Restores < sn.Restarts {
			tb.Fatalf("run %d: snapshot ok=%v, %d cold starts, %d restores over %d restarts; every restart should restore",
				i, ok, sn.ColdStarts, sn.Restores, sn.Restarts)
		}
		c.faults += sn.Crashes + sn.Errors + sn.Hangs
		c.restores += sn.Restores
	}
	runtime.ReadMemStats(&after)
	c.mallocs, c.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return c
}

// perFault is what one fault and its restart allocate: the objects and
// bytes of faulty's runs less those of a fault-free twin run as often,
// per fault. Batches, epochs and each Run's cold start cost the twins
// the same, so what is left is the fault path: the errors, the sfi
// teardown and rebind, the restart and the restore.
func perFault(faulty, twin chaosCost) (allocs, bytes float64) {
	n := float64(faulty.faults)
	return (float64(faulty.mallocs) - float64(twin.mallocs)) / n, (float64(faulty.bytes) - float64(twin.bytes)) / n
}

// twinCost measures runs of a fault-free chaosRunner: the other half of
// perFault.
func twinCost(tb testing.TB, runs, batchesPerWorker int) chaosCost {
	tb.Helper()
	c := chaosRuns(tb, chaosRunner(tb, 0, batchesPerWorker), runs, batchesPerWorker)
	if c.faults != 0 {
		tb.Fatalf("the fault-free twin faulted %d times", c.faults)
	}
	return c
}

// BenchmarkChaosRestore runs chaosRunner with a handler panic on every
// 2000th batch of each worker, so every Run takes a few dozen epochs and
// restores each worker's maglev and session state five times. allocs/op
// and B/op are one Run: with epoch buffers handed back and Restore
// rebuilding in place, its cold start and little else (a Run made ~9 MB
// of epoch buffers and restored graphs before). allocs/fault and B/fault
// are one fault and its restart, against a fault-free twin (perFault).
// alloc-gate holds all four.
func BenchmarkChaosRestore(b *testing.B) {
	const faultEvery = 2000
	const batchesPerWorker = 5*faultEvery + faultEvery/2
	r := chaosRunner(b, faultEvery, batchesPerWorker)
	b.ReportAllocs()
	b.ResetTimer()
	c := chaosRuns(b, r, b.N, batchesPerWorker)
	b.StopTimer()
	if c.restores < uint64(b.N)*chaosWorkers*4 {
		b.Fatalf("%d restores over %d runs; the bench priced no restore path", c.restores, b.N)
	}
	b.ReportMetric(float64(c.restores)/float64(b.N), "restores/run")
	allocs, bytes := perFault(c, twinCost(b, b.N, batchesPerWorker))
	b.ReportMetric(allocs, "allocs/fault")
	b.ReportMetric(bytes, "B/fault")
}

// sessionGraph is the session table's shape as the reflect engine sees
// it — flow pointers in a map, each holding a shared backend handle —
// built explicitly because the table itself now checkpoints in wire form
// and never meets an engine mode.
type sessionGraph struct {
	Flows map[uint64]*sessionGraphFlow
}

type sessionGraphFlow struct {
	Tuple   packet.FiveTuple
	Backend linear.Rc[session.Backend]
	Packets uint64
	Bytes   uint64
}

// BenchmarkCheckpointRestoreSession measures materializing a session
// graph — 4096 flows over 32 shared backend handles, the Figure-3a
// aliasing shape — from a reflect-engine checkpoint taken under each
// sharing-preserving mode. RcAware pays one flag check per Rc handle;
// VisitedSet pays a global address-table probe per node.
func BenchmarkCheckpointRestoreSession(b *testing.B) {
	backends := make([]linear.Rc[session.Backend], 32)
	for i := range backends {
		backends[i] = linear.NewRc(session.Backend{IP: packet.Addr(10, 1, 0, byte(i))})
	}
	g := &sessionGraph{Flows: make(map[uint64]*sessionGraphFlow, 4096)}
	base := dpdk.DefaultSpec().Tuple
	for i := 0; i < 4096; i++ {
		tu := base
		tu.SrcIP += packet.IPv4(i)
		tu.SrcPort += uint16(i % 50000)
		g.Flows[tu.Hash()] = &sessionGraphFlow{Tuple: tu, Backend: backends[i%32].Clone(), Packets: 1, Bytes: 64}
	}
	for _, mode := range []checkpoint.Mode{checkpoint.RcAware, checkpoint.VisitedSet} {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			snap, err := checkpoint.NewEngine(mode).Checkpoint(g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.Materialize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationRRefCall isolates the cost of one remote invocation
// (weak upgrade + policy + context switch + fault guard) against a plain
// interface call on the same operator.
func BenchmarkAblationRRefCall(b *testing.B) {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("svc")
	rref, err := sfi.Export[netbricks.Operator](d, netbricks.NullFilter{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rref.Call("p", func(netbricks.Operator) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDirectCall is the function-call baseline for
// BenchmarkAblationRRefCall.
func BenchmarkAblationDirectCall(b *testing.B) {
	var op netbricks.Operator = netbricks.NullFilter{}
	batch := &netbricks.Batch{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := op.ProcessBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCopySFI is the traditional copy-based SFI boundary the
// paper contrasts against: the batch's packet payloads are deep-copied on
// every crossing. Cost scales with bytes moved, unlike CallMove.
func BenchmarkAblationCopySFI(b *testing.B) {
	for _, bs := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			port := dpdk.NewPort(dpdk.Config{PoolSize: bs + 64})
			pkts := make([]*packet.Packet, bs)
			n := port.RxBurst(pkts)
			batch := &netbricks.Batch{Pkts: pkts[:n]}
			boundary := sfi.CopyBoundary[*netbricks.Batch]{Copy: deepCopyBatch}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := boundary.Cross(batch, func(in *netbricks.Batch) (*netbricks.Batch, error) {
					return in, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = out
			}
		})
	}
}

// BenchmarkAblationMoveSFI is the zero-copy CallMove crossing at the same
// batch sizes, for direct comparison with BenchmarkAblationCopySFI.
func BenchmarkAblationMoveSFI(b *testing.B) {
	for _, bs := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			port := dpdk.NewPort(dpdk.Config{PoolSize: bs + 64})
			pkts := make([]*packet.Packet, bs)
			n := port.RxBurst(pkts)
			batch := &netbricks.Batch{Pkts: pkts[:n]}
			mgr := sfi.NewManager()
			d := mgr.NewDomain("stage")
			rref, err := sfi.Export[netbricks.Operator](d, netbricks.NullFilter{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				owned := linear.New(batch)
				out, err := sfi.CallMove(rref, "p", owned,
					func(op netbricks.Operator, a linear.Owned[*netbricks.Batch]) (linear.Owned[*netbricks.Batch], error) {
						return a, nil
					})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := out.Into(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTaggedHeap is the shared-heap-with-ownership-tags
// architecture (Mao et al. [27]): every packet access pays a tag
// validation. The paper cites >100% overhead for this design.
func BenchmarkAblationTaggedHeap(b *testing.B) {
	for _, bs := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			heap := sfi.NewTaggedHeap[packet.Packet]()
			const owner sfi.DomainID = 1
			handles := make([]sfi.Handle, bs)
			for i := range handles {
				handles[i] = heap.Alloc(owner, packet.Packet{Data: make([]byte, 64)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, h := range handles {
					if err := heap.Access(owner, h, func(p *packet.Packet) {
						p.UserTag++
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationUntaggedAccess is the baseline for the tagged heap:
// the same per-packet work without tag validation.
func BenchmarkAblationUntaggedAccess(b *testing.B) {
	for _, bs := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			pkts := make([]*packet.Packet, bs)
			for i := range pkts {
				pkts[i] = &packet.Packet{Data: make([]byte, 64)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pkts {
					p.UserTag++
				}
			}
		})
	}
}

// BenchmarkAblationVisitedSet compares the three checkpoint traversal
// strategies on a structure that is ALL unique pointers (no sharing):
// the visited-set approach pays its table probes even when there is
// nothing to deduplicate — the paper's "obvious downside".
func BenchmarkAblationVisitedSet(b *testing.B) {
	type node struct {
		Val  int
		Next *node
	}
	build := func(n int) *node {
		var head *node
		for i := 0; i < n; i++ {
			head = &node{Val: i, Next: head}
		}
		return head
	}
	list := build(1000)
	for _, mode := range []checkpoint.Mode{checkpoint.RcAware, checkpoint.VisitedSet} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := checkpoint.NewEngine(mode)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Checkpoint(list); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// deepCopyBatch clones a batch and all packet payloads (the copy-based
// SFI crossing).
func deepCopyBatch(in *netbricks.Batch) *netbricks.Batch {
	out := &netbricks.Batch{Pkts: make([]*packet.Packet, len(in.Pkts))}
	for i, p := range in.Pkts {
		cp := *p
		cp.Data = append([]byte(nil), p.Data...)
		out.Pkts[i] = &cp
	}
	return out
}
