package netbricks

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/leakcheck"
	"repro/internal/packet"
	"repro/internal/sfi"
)

// newShardedPort builds a multi-queue port in RSS-partitioned mode with
// plenty of flows so every queue gets traffic.
func newShardedPort(t *testing.T, queues, poolSize int) *dpdk.Port {
	t.Helper()
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: poolSize,
		RxQueues: queues,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 1024, queues),
	})
	leakcheck.Pool(t, "sharded port", port.PoolAvailable)
	return port
}

func TestShardedRunnerDirect(t *testing.T) {
	const workers = 4
	port := newShardedPort(t, workers, 1024)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 16,
		NewDirect: func(int) *Pipeline { return NewPipeline(Parse{}, NullFilter{}) },
	}
	stats, err := r.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != workers*20 {
		t.Fatalf("batches = %d, want %d", stats.Batches, workers*20)
	}
	if stats.Packets != uint64(workers*20*16) {
		t.Fatalf("packets = %d, want %d", stats.Packets, workers*20*16)
	}
	// Per-worker stats must sum to the aggregate.
	var sum uint64
	for _, ws := range r.WorkerSnapshots() {
		sum += ws.Packets
	}
	if sum != stats.Packets {
		t.Fatalf("per-worker sum %d != aggregate %d", sum, stats.Packets)
	}
}

func TestShardedRunnerIsolated(t *testing.T) {
	const workers = 2
	port := newShardedPort(t, workers, 512)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 8,
		NewIsolated: func(int) (*IsolatedPipeline, error) {
			return NewIsolatedPipeline(sfi.NewManager(), []Operator{Parse{}, NullFilter{}, NullFilter{}}, nil)
		},
	}
	stats, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != workers*10 || stats.Packets != uint64(workers*10*8) {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestShardedRunnerFlowAffinity is the steering guarantee end to end:
// across every worker, no flow is ever seen by two workers, and each
// packet arrives on the queue its RSS hash selects.
func TestShardedRunnerFlowAffinity(t *testing.T) {
	const workers = 4
	port := newShardedPort(t, workers, 1024)
	var mu sync.Mutex
	flowWorker := map[packet.FiveTuple]int{}
	reta := packet.NewRETA(workers, 0) // the port's steering: default key, default table
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 16,
		NewDirect: func(w int) *Pipeline {
			spy := Transform{Label: "spy", Fn: func(p *packet.Packet) error {
				if got := reta.Queue(p.RSSHash()); got != w {
					return errors.New("packet steered to wrong queue")
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := flowWorker[p.Tuple()]; ok && prev != w {
					return errors.New("flow migrated between workers")
				}
				flowWorker[p.Tuple()] = w
				return nil
			}}
			return NewPipeline(Parse{}, spy)
		},
	}
	if _, err := r.Run(30); err != nil {
		t.Fatal(err)
	}
	if len(flowWorker) < workers {
		t.Fatalf("only %d flows observed", len(flowWorker))
	}
}

// TestShardedRunnerSteeredMode drives a skewed mix: one zipf source per
// queue, each over the flows RSS steers to it. Flow affinity must hold
// under skew too, and no buffer may leak.
func TestShardedRunnerSteeredMode(t *testing.T) {
	const workers = 4
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: 2048,
		RxQueues: workers,
		QueueGen: dpdk.NewZipfPartition(dpdk.DefaultSpec(), 512, workers, 1.2, 7),
	})
	leakcheck.Pool(t, "steered port", port.PoolAvailable)
	var mu sync.Mutex
	flowWorker := map[packet.FiveTuple]int{}
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 16,
		NewDirect: func(w int) *Pipeline {
			spy := Transform{Label: "spy", Fn: func(p *packet.Packet) error {
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := flowWorker[p.Tuple()]; ok && prev != w {
					return errors.New("flow migrated between workers")
				}
				flowWorker[p.Tuple()] = w
				return nil
			}}
			return NewPipeline(Parse{}, spy)
		},
	}
	stats, err := r.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets == 0 {
		t.Fatal("no packets processed")
	}
	if len(flowWorker) < 2 {
		t.Fatalf("flows all landed on one worker: %d flows", len(flowWorker))
	}
}

// TestShardedRunnerRace is the concurrency stress for the race tier: the
// maximum worker count over a small shared pool (so every queue's cache
// refills and spills interleave), isolated pipelines whose
// domains live in per-worker managers, and a shared-state spy guarded
// only by linear ownership of the batch. Run with -race; an ownership
// violation or unsynchronized access fails loudly.
func TestShardedRunnerRace(t *testing.T) {
	const workers = 8
	port := newShardedPort(t, workers, 1024)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 8,
		NewIsolated: func(int) (*IsolatedPipeline, error) {
			// Mutating every packet in every stage would race instantly if
			// two workers ever shared a batch; linear moves make it safe.
			bump := Transform{Label: "bump", Fn: func(p *packet.Packet) error {
				p.UserTag++
				return nil
			}}
			return NewIsolatedPipeline(sfi.NewManager(), []Operator{Parse{}, bump, bump, bump}, nil)
		},
	}
	for round := 0; round < 3; round++ {
		stats, err := r.Run(50)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Packets == 0 {
			t.Fatal("no packets processed")
		}
	}
}

// TestShardedRunnerFaultRecovery injects a panic in one worker's private
// pipeline; that worker recovers and continues while the others never
// notice. Lost-batch buffers must still balance.
func TestShardedRunnerFaultRecovery(t *testing.T) {
	const workers = 4
	port := newShardedPort(t, workers, 1024)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 8, AutoRecover: true,
		NewIsolated: func(w int) (*IsolatedPipeline, error) {
			inj := &FaultInjector{}
			if w == 1 {
				inj.PanicOn = 5
			}
			return NewIsolatedPipeline(sfi.NewManager(),
				[]Operator{Parse{}, inj},
				[]func() Operator{nil, func() Operator { return &FaultInjector{} }})
		},
	}
	stats, err := r.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Faults != 1 || stats.Recovered != 1 {
		t.Fatalf("stats = %+v, want exactly one fault and recovery", stats)
	}
	per := r.WorkerSnapshots()
	if per[1].Faults != 1 {
		t.Fatalf("fault not attributed to worker 1: %+v", per)
	}
	for w, ws := range per {
		if w != 1 && ws.Faults != 0 {
			t.Fatalf("worker %d saw a fault: %+v", w, ws)
		}
	}
}

// TestShardedRunnerFaultWithoutRecoveryStopsWorker: without AutoRecover
// the faulting worker stops with an error; others run to completion.
func TestShardedRunnerFaultWithoutRecoveryStopsWorker(t *testing.T) {
	const workers = 2
	port := newShardedPort(t, workers, 512)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 8,
		NewIsolated: func(w int) (*IsolatedPipeline, error) {
			inj := &FaultInjector{}
			if w == 0 {
				inj.PanicOn = 3
			}
			return NewIsolatedPipeline(sfi.NewManager(), []Operator{inj}, nil)
		},
	}
	stats, err := r.Run(10)
	if !errors.Is(err, ErrStageFailed) {
		t.Fatalf("err = %v, want ErrStageFailed", err)
	}
	per := r.WorkerSnapshots()
	if per[0].Batches != 2 {
		t.Fatalf("worker 0 batches = %d, want 2 before the fault", per[0].Batches)
	}
	if per[1].Batches != 10 {
		t.Fatalf("worker 1 batches = %d, want 10", per[1].Batches)
	}
	_ = stats
}

// TestShardedRunnerEmptyPartition: with more queues than flows some
// queues get nothing; their workers must terminate cleanly rather than
// spin.
func TestShardedRunnerEmptyPartition(t *testing.T) {
	const workers = 4
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: 256,
		RxQueues: workers,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 2, workers),
	})
	leakcheck.Pool(t, "sparse port", port.PoolAvailable)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 4,
		NewDirect: func(int) *Pipeline { return NewPipeline(NullFilter{}) },
	}
	stats, err := r.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets == 0 {
		t.Fatal("the non-empty partitions produced nothing")
	}
}

func TestShardedRunnerValidation(t *testing.T) {
	port := dpdk.NewPort(dpdk.Config{PoolSize: 64, RxQueues: 2, QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 2, 2)})
	direct := func(int) *Pipeline { return NewPipeline(NullFilter{}) }
	// ShardedRunner holds atomics and must not be copied (go vet
	// copylocks), hence pointers here.
	cases := []struct {
		name string
		r    *ShardedRunner
	}{
		{"zero workers", &ShardedRunner{Port: port, BatchSize: 4, NewDirect: direct}},
		{"zero batch", &ShardedRunner{Port: port, Workers: 2, NewDirect: direct}},
		{"no pipeline", &ShardedRunner{Port: port, Workers: 2, BatchSize: 4}},
		{"both pipelines", &ShardedRunner{Port: port, Workers: 2, BatchSize: 4,
			NewDirect: direct,
			NewIsolated: func(int) (*IsolatedPipeline, error) {
				return NewIsolatedPipeline(sfi.NewManager(), []Operator{NullFilter{}}, nil)
			}}},
		{"nil port", &ShardedRunner{Workers: 2, BatchSize: 4, NewDirect: direct}},
		{"too few queues", &ShardedRunner{Port: port, Workers: 4, BatchSize: 4, NewDirect: direct}},
		// Checkpoint configuration only a supervised worker domain acts on.
		{"state without supervise", &ShardedRunner{Port: port, Workers: 2, BatchSize: 4, NewDirect: direct,
			NewState: func(int) domain.Stateful { return domain.NewStateSet() }}},
		{"checkpoint epoch without supervise", &ShardedRunner{Port: port, Workers: 2, BatchSize: 4, NewDirect: direct,
			Policy: domain.Policy{CheckpointEvery: time.Millisecond}}},
		{"persister without supervise", &ShardedRunner{Port: port, Workers: 2, BatchSize: 4, NewDirect: direct,
			Policy: domain.Policy{Persist: nopPersister{}}}},
	}
	for _, c := range cases {
		if _, err := c.r.Run(1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestShardedRunnerIsolatedFactoryError: a factory failure on one worker
// surfaces as the run error.
func TestShardedRunnerIsolatedFactoryError(t *testing.T) {
	port := newShardedPort(t, 2, 256)
	boom := errors.New("factory failed")
	r := &ShardedRunner{
		Port: port, Workers: 2, BatchSize: 4,
		NewIsolated: func(w int) (*IsolatedPipeline, error) {
			if w == 1 {
				return nil, boom
			}
			return NewIsolatedPipeline(sfi.NewManager(), []Operator{NullFilter{}}, nil)
		},
	}
	if _, err := r.Run(2); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want factory error", err)
	}
}

type nopPersister struct{}

func (nopPersister) PersistEpoch(string, uint64, []byte) error { return nil }
func (nopPersister) LastEpoch(string) ([]byte, uint64, bool, error) {
	return nil, 0, false, nil
}

// faultEvery faults every k-th batch its worker sees, by error return or
// by panic, and counts the packets that went down with those batches. The
// batch counter lives outside the stage so it survives the rebuilds and
// re-exports recovery performs.
type faultEvery struct {
	seen   *atomic.Int64
	k      int64
	panics bool
	lost   *atomic.Uint64
}

func (faultEvery) Name() string { return "fault-every" }

func (f faultEvery) ProcessBatch(b *Batch) error {
	if f.k == 0 || f.seen.Add(1)%f.k != 0 {
		return nil
	}
	f.lost.Add(uint64(len(b.Pkts) + len(b.Dropped)))
	if f.panics {
		panic("injected stage panic")
	}
	return errors.New("injected stage error")
}

// TestOneRunnerEveryConfiguration drives the same stages over the same
// traffic through {direct, isolated} × {inline, supervised}: one runner,
// so one account of every packet. The fault rows add a stage fault every
// k-th batch in each form the configuration contains (an unsupervised
// direct pipeline contains an error return but not a panic), which
// between them leave serve by every exit it has.
func TestOneRunnerEveryConfiguration(t *testing.T) {
	const workers, batch, n, k = 2, 8, 60, 7
	cases := []struct {
		name                 string
		isolated, supervised bool
		fault                string // "", "error" or "panic"
	}{
		{"direct_inline", false, false, ""},
		{"isolated_inline", true, false, ""},
		{"direct_supervised", false, true, ""},
		{"isolated_supervised", true, true, ""},
		{"direct_inline_error", false, false, "error"}, // batch handed back
		{"isolated_inline_error", true, false, "error"},
		{"isolated_inline_panic", true, false, "panic"}, // batch lost in a failed stage domain
		{"direct_supervised_error", false, true, "error"},
		{"direct_supervised_panic", false, true, "panic"}, // panic unwinding through serve
		{"isolated_supervised_error", true, true, "error"},
		{"isolated_supervised_panic", true, true, "panic"},
	}
	var clean *RunStats // the first fault-free row; the others must match it
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			port := newShardedPort(t, workers, 512)
			var lost atomic.Uint64
			seen := make([]atomic.Int64, workers)
			stages := func(w int) []Operator {
				f := faultEvery{seen: &seen[w], panics: c.fault == "panic", lost: &lost}
				if c.fault != "" {
					f.k = k
				}
				return []Operator{Parse{}, Filter{Label: "even-src", Pred: func(p *packet.Packet) bool {
					return p.Tuple().SrcPort%2 == 0
				}}, f}
			}
			r := &ShardedRunner{
				Port: port, Workers: workers, BatchSize: batch, AutoRecover: true,
				Supervise: c.supervised,
				Policy:    domain.Policy{Backoff: 20 * time.Microsecond, MaxBackoff: time.Millisecond, MaxRestarts: -1},
			}
			if c.isolated {
				r.NewIsolated = func(w int) (*IsolatedPipeline, error) {
					ops := stages(w)
					return NewIsolatedPipeline(sfi.NewManager(), ops,
						[]func() Operator{nil, nil, func() Operator { return ops[2] }})
				}
			} else {
				r.NewDirect = func(w int) *Pipeline { return NewPipeline(stages(w)...) }
			}
			stats, err := r.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			rx := port.Stats.RxPackets.Load()
			if got := stats.Packets + stats.Drops; got != rx-lost.Load() {
				t.Fatalf("forwarded %d + filtered %d = %d, want rx %d - %d in faulted batches = %d",
					stats.Packets, stats.Drops, got, rx, lost.Load(), rx-lost.Load())
			}
			if stats.Packets == 0 || stats.Drops == 0 {
				t.Fatalf("the filter must both pass and drop: %+v", stats)
			}
			faults := 0
			if c.fault != "" {
				faults = workers * (n / k)
			}
			if stats.Faults != faults || stats.Recovered != faults || stats.Batches != workers*n-faults {
				t.Fatalf("stats = %+v, want %d faults, as many recoveries, %d batches", stats, faults, workers*n-faults)
			}
			if c.fault == "" {
				if clean == nil {
					clean = &stats
				} else if stats.Packets != clean.Packets || stats.Drops != clean.Drops {
					t.Fatalf("forwarded %d, filtered %d; the first fault-free configuration forwarded %d, filtered %d",
						stats.Packets, stats.Drops, clean.Packets, clean.Drops)
				}
			}
		})
	}
}

// TestSupervisedRunReportsStoppedWorker: a worker that exhausts
// Policy.MaxRestarts stops for good and leaves its queue unserved. The
// run must say so, by name, while the other worker serves its whole
// budget and no buffer leaks.
func TestSupervisedRunReportsStoppedWorker(t *testing.T) {
	const workers, n = 2, 20
	port := newShardedPort(t, workers, 512)
	r := &ShardedRunner{
		Port: port, Workers: workers, BatchSize: 8, Supervise: true,
		Policy: domain.Policy{Backoff: 20 * time.Microsecond, MaxBackoff: time.Millisecond, MaxRestarts: 1},
		NewDirect: func(w int) *Pipeline {
			if w == 0 {
				// Every rebuild gets a fresh injector: it always panics.
				return NewPipeline(Parse{}, &FaultInjector{PanicOn: 1})
			}
			return NewPipeline(Parse{})
		},
	}
	stats, err := r.Run(n)
	if err == nil || !strings.Contains(err.Error(), "worker-0") || strings.Contains(err.Error(), "worker-1") {
		t.Fatalf("err = %v, want one naming worker-0 only", err)
	}
	per := r.WorkerSnapshots()
	if per[0].Batches != 0 || per[0].Faults != 2 {
		t.Fatalf("worker 0 = %+v, want no batch served and 2 faults (MaxRestarts 1)", per[0])
	}
	if per[1].Batches != n {
		t.Fatalf("worker 1 served %d batches, want its full budget of %d", per[1].Batches, n)
	}
	if stats.Batches != n {
		t.Fatalf("aggregate stats = %+v, want them returned beside the error", stats)
	}
}
