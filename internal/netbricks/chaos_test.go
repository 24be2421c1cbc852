// Chaos test for the supervised sharded runtime: the full parse →
// firewall → maglev pipeline, per-worker protection domains, and a
// seeded fault injector panicking (and occasionally stalling) the hot
// path thousands of times. External test package so it can use the real
// NF operators, which import netbricks.
//
// The test runs the same chaos body over both port implementations: the
// simulated NIC (dpdk) at a brutal 30% panic rate, and the socket-backed
// port (netport) fed real loopback datagrams with the injector crashing
// the pipeline at 2% — proving worker restarts strand neither rx-ring
// slots nor socket-side buffers.
package netbricks_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/domain/faultinject"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/leakcheck"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/sfi"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// chaosStage is the injection site and the retired-instance witness: a
// recovery re-exports a *fresh* instance into the stage's reference-table
// slot, so if a remote invocation ever reaches an instance whose
// replacement already exists, an rref served a cleared slot — the exact
// §3 violation the runtime must make impossible.
type chaosStage struct {
	inj        *faultinject.Injector
	retired    atomic.Bool
	violations *atomic.Uint64
}

func (c *chaosStage) Name() string { return "chaos" }

func (c *chaosStage) ProcessBatch(*netbricks.Batch) error {
	if c.retired.Load() {
		c.violations.Add(1)
	}
	c.inj.Point("chaos")
	return nil
}

// chaosPipeline builds the per-worker isolated pipeline factory plus the
// shared violation counter.
func chaosPipeline(t *testing.T, inj *faultinject.Injector, violations *atomic.Uint64) func(w int) (*netbricks.Pipeline, error) {
	t.Helper()
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	backends := []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
	return func(w int) (*netbricks.Pipeline, error) {
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			return nil, err
		}
		cur := &chaosStage{inj: inj, violations: violations}
		stages := []netbricks.Operator{
			netbricks.Parse{},
			firewall.Operator{DB: db},
			cur,
			maglev.Operator{LB: lb},
		}
		factories := []func() netbricks.Operator{
			nil, nil,
			func() netbricks.Operator {
				// Recovery: retire the crashed instance, export a fresh
				// one. Any later call landing on the old instance is a
				// cleared-slot access and trips the witness.
				cur.retired.Store(true)
				cur = &chaosStage{inj: inj, violations: violations}
				return cur
			},
			nil,
		}
		return netbricks.NewIsolatedPipeline(sfi.NewManager(), stages, factories)
	}
}

// chaosRun drives the supervised 4-worker chaos pipeline over the given
// port and asserts the invariants common to every port implementation:
// faults were absorbed, zero retired-instance accesses, workers
// recovered, and an aftermath run with faults off forwards cleanly.
// calmBatches is the expected aftermath batch count per worker (0 skips
// the exact-count assertion for ports whose traffic is externally
// paced).
func chaosRun(t *testing.T, port netbricks.BurstPort, workers, batchSize, perWorker int,
	inj *faultinject.Injector, tracer *trace.Tracer, minFaults int, calmBatches int) {
	t.Helper()
	var violations atomic.Uint64
	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: batchSize,
		NewIsolated:  chaosPipeline(t, inj, &violations),
		Supervise:    true,
		Tracer:       tracer,
		MailboxDepth: 2, // keeps the inbox under pressure through restarts
		Policy: domain.Policy{
			Backoff:     20 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			MaxRestarts: -1,
			HangAfter:   2 * time.Millisecond,
		},
	}
	stats, err := r.Run(perWorker)
	if err != nil {
		t.Fatal(err)
	}
	sn, ok := r.SupervisorSnapshot()
	if !ok {
		t.Fatal("no supervisor snapshot after supervised run")
	}
	faults := sn.Errors + sn.Crashes + sn.Hangs
	t.Logf("chaos: batches=%d packets=%d faults=%d (errors=%d crashes=%d hangs=%d) restarts=%d injected panics=%d stalls=%d",
		stats.Batches, stats.Packets, faults, sn.Errors, sn.Crashes, sn.Hangs,
		sn.Restarts, inj.Stats.Panics.Load(), inj.Stats.Stalls.Load())

	if faults < uint64(minFaults) {
		t.Fatalf("chaos run produced %d faults, want >= %d", faults, minFaults)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d invocations reached retired operator instances (cleared-slot rref access)", v)
	}
	if stats.Batches == 0 {
		t.Fatal("pipeline forwarded nothing through the chaos run")
	}
	if stats.Recovered == 0 {
		t.Fatal("no worker recoveries recorded")
	}
	if sn.Restarts == 0 {
		t.Fatal("supervisor restarted no workers")
	}

	// Aftermath: faults off, same runner — the pipeline must forward
	// cleanly, proving the chaos run left no corrupted state behind.
	inj.PanicProb, inj.StallProb = 0, 0
	calm, err := r.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if calmBatches > 0 && calm.Batches != workers*calmBatches {
		t.Fatalf("post-chaos run: %d batches, want %d", calm.Batches, workers*calmBatches)
	}
	if calm.Batches == 0 {
		t.Fatal("post-chaos run forwarded nothing")
	}
	if calm.Faults != 0 {
		t.Fatalf("post-chaos run faulted %d times", calm.Faults)
	}
	// Pool-leak accounting is settled by leakcheck at cleanup.
}

// TestChaosSupervisedPipeline is the acceptance chaos run, once per port
// implementation.
//
// dpdk: >= 5000 injected faults at 30% panic probability across a
// supervised 4-worker firewall+maglev pipeline, zero pool leaks
// (leakcheck), zero accesses to retired (cleared-slot) operator
// instances, and the pipeline still forwarding afterwards.
//
// netport: the same supervised pipeline fed by a continuous pktgen over
// the kernel's UDP loopback, with the injector crashing the pipeline at
// 2%. Restarted workers must strand neither rx-ring slots nor
// socket-side mbufs: after Close, the port pool balances exactly.
// Wall time: its hang counts are lower bounds, and load only adds to them.
func TestChaosSupervisedPipeline(t *testing.T) {
	const (
		workers   = 4
		batchSize = 8
	)
	t.Run("dpdk", func(t *testing.T) {
		const perWorker = 5000
		port := dpdk.NewPort(dpdk.Config{
			PoolSize:  workers*(128+batchSize+batchSize) + 256,
			RxQueues:  workers,
			CacheSize: batchSize,
			QueueGen:  dpdk.NewZipfPartition(dpdk.DefaultSpec(), 1024, workers, 1.3, 42),
		})
		leakcheck.Pool(t, "chaos port", port.PoolAvailable)

		inj := faultinject.New(1)
		inj.PanicProb = 0.30
		inj.StallProb = 0.001
		inj.StallFor = 3 * time.Millisecond

		chaosRun(t, port, workers, batchSize, perWorker, inj, nil, 5000, 100)

		if inj.Stats.Panics.Load() == 0 || inj.Stats.Stalls.Load() == 0 {
			t.Fatalf("injector coverage: panics=%d stalls=%d, want both > 0",
				inj.Stats.Panics.Load(), inj.Stats.Stalls.Load())
		}
	})

	t.Run("netport", func(t *testing.T) {
		if testing.Short() {
			t.Skip("loopback chaos tier skipped in -short")
		}
		const perWorker = 400

		// Trace the chaos: sampled spans armed at ingress must be
		// conservation-accounted no matter how the packet dies — TX
		// completes, and every shed/fault/drain path aborts. The assert is
		// registered FIRST so the LIFO cleanup stack runs it LAST, after
		// port.Close has drained (and aborted) any spans still in flight.
		rec := telemetry.NewRecorder(1024)
		tracer := trace.New(trace.Config{SampleEvery: 4, Ring: 64, Recorder: rec})
		t.Cleanup(func() {
			armed, completed, aborted := tracer.Counts()
			t.Logf("trace conservation: armed=%d completed=%d aborted=%d", armed, completed, aborted)
			if armed != completed+aborted {
				t.Errorf("trace span leak: armed %d != completed %d + aborted %d",
					armed, completed, aborted)
			}
			if armed == 0 {
				t.Error("chaos run armed no traces (sampler never fired)")
			}
			if aborted == 0 {
				t.Error("chaos run aborted no traces: domain crashes must truncate in-flight spans")
			}
			abortEvents := 0
			for _, ev := range rec.Dump() {
				if ev.Kind == telemetry.EvTraceAbort {
					abortEvents++
				}
			}
			if abortEvents == 0 {
				t.Error("no EvTraceAbort events in the flight recorder")
			}
		})

		port, err := netport.Open(netport.Config{
			Listen:    "127.0.0.1:0",
			Queues:    workers,
			RingSize:  256,
			BatchSize: batchSize,
			ReusePort: true, // kernel fan-out under chaos; distributor fallback off Linux
			PollWait:  20 * time.Millisecond,
			Tracer:    tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		leakcheck.Pool(t, "chaos netport", port.PoolAvailable)
		t.Cleanup(func() { port.Close() }) // LIFO: Close settles the pool before leakcheck reads it

		// Continuous paced loopback sender; stopped after the aftermath
		// run so both phases have live traffic.
		stop := make(chan struct{})
		genDone := make(chan error, 1)
		t.Cleanup(func() {
			close(stop)
			if err := <-genDone; err != nil {
				t.Error(err)
			}
		})
		gen := &netport.Pktgen{
			Target:  port.Addr().String(),
			Base:    dpdk.DefaultSpec(),
			Flows:   64,
			Sockets: 64, // source-port entropy so the REUSEPORT group fans out
			PPS:     50000,
		}
		go func() {
			_, err := gen.Run(stop)
			genDone <- err
		}()

		inj := faultinject.New(7)
		inj.PanicProb = 0.02 // the satellite's 2% crash rate
		inj.StallProb = 0.001
		inj.StallFor = 3 * time.Millisecond

		// Externally paced traffic: workers give up after an idle grace,
		// so the aftermath batch count is >0 but not exact.
		chaosRun(t, port, workers, batchSize, perWorker, inj, tracer, 10, 0)

		// Restarts must not have stranded buffers: with the sender still
		// live the pool cannot be asserted yet (datagrams are in flight),
		// but leakcheck runs after Close, which settles rings and caches.
	})
}
