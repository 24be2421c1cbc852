package netbricks

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/leakcheck"
	"repro/internal/sfi"
	"repro/internal/sim"
)

// witnessStage counts calls that reach it after its recovery factory
// retired it, and panics once when armed. The instance the stuck call
// binds to parks that call in park before anything else.
type witnessStage struct {
	retired    atomic.Bool
	first      bool // the instance the stuck call bound to
	park       func()
	violations *atomic.Uint64
	armed      *atomic.Bool
	firstRan   chan<- struct{}
}

func (s *witnessStage) Name() string { return "witness" }

func (s *witnessStage) ProcessBatch(*Batch) error {
	if s.park != nil {
		s.park()
	}
	if s.retired.Load() {
		s.violations.Add(1)
	}
	if s.first {
		select {
		case s.firstRan <- struct{}{}:
		default:
		}
	}
	if s.armed.CompareAndSwap(true, false) {
		panic("witness: injected fault")
	}
	return nil
}

// TestAbandonedServeKeepsItsPipeline: a serve the supervisor abandons as
// hung may still be inside a stage call it has already bound. The
// replacement generation must not share stage domains with it: otherwise
// the replacement's next fault recovers the stage in place, retiring the
// very instance the abandoned call is about to enter (the cleared-slot
// access the chaos tier's witness counts). The stuck call is parked at the
// top of the first instance's ProcessBatch — after the rref is acquired,
// before the retired check — so the interleaving is forced, not waited
// for. Run's supervisor is on a fake clock: the verdict and both restarts
// come when the test moves it.
func TestAbandonedServeKeepsItsPipeline(t *testing.T) {
	var (
		violations atomic.Uint64
		armed      atomic.Bool
		builds     atomic.Int32
		release    = make(chan struct{})
		stuck      = make(chan struct{}, 1)
		retiredOne = make(chan struct{}, 8)
		firstRan   = make(chan struct{}, 1)
	)
	var calls atomic.Int32
	park := func() {
		if calls.Add(1) == 1 {
			stuck <- struct{}{}
			<-release
		}
	}
	newIsolated := func(int) (*Pipeline, error) {
		cur := &witnessStage{first: builds.Add(1) == 1, violations: &violations, armed: &armed, firstRan: firstRan}
		if cur.first {
			cur.park = park
		}
		return NewIsolatedPipeline(sfi.NewManager(), []Operator{cur}, []func() Operator{func() Operator {
			cur.retired.Store(true)
			retiredOne <- struct{}{}
			cur = &witnessStage{violations: &violations, armed: &armed, firstRan: firstRan}
			return cur
		}})
	}
	r := &ShardedRunner{
		Port:        dpdk.NewPort(dpdk.Config{PoolSize: 256}),
		Workers:     1,
		BatchSize:   4,
		Supervise:   true,
		NewIsolated: newIsolated,
		Policy: domain.Policy{
			Backoff:     20 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			MaxRestarts: -1,
			HangAfter:   2 * time.Millisecond,
		},
	}
	fc := sim.NewFake()
	ran := make(chan error, 1)
	go func() {
		_, err := r.run(50, fc)
		ran <- err
	}()
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	snap := func() domain.Snapshot {
		sn, _ := r.SupervisorSnapshot()
		return sn
	}
	wait(stuck, "the first call to park in the stage")
	fc.Armed() // Spawn's wake armed the first hang poll
	if sn := nextRestart(t, fc, snap); sn.Hangs != 1 {
		t.Fatalf("%d hangs before the replacement started, want 1", sn.Hangs)
	}
	// The next generation's first call through the stage faults, and its
	// recovery retires an instance.
	armed.Store(true)
	fc.Armed() // the replacement faulted: its restart is armed
	nextRestart(t, fc, snap)
	wait(retiredOne, "a stage recovery")
	close(release)
	wait(firstRan, "the abandoned call to reach its instance")
	select {
	case err := <-ran:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not finish")
	}
	if sn := snap(); sn.Hangs != 1 {
		t.Fatalf("%d hang verdicts, want the stuck call's 1", sn.Hangs)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d calls reached a retired stage instance", v)
	}
}

// parkStage parks the first call it gets until release is closed.
type parkStage struct {
	calls   atomic.Int32
	stuck   chan<- struct{}
	release <-chan struct{}
}

func (s *parkStage) Name() string { return "park" }

func (s *parkStage) ProcessBatch(*Batch) error {
	if s.calls.Add(1) == 1 {
		close(s.stuck)
		<-s.release
	}
	return nil
}

// TestRunWaitsForAnAbandonedServe: Run returns only once every batch is
// home. A serve parks in a stage past its hang verdict; the replacement
// serves the rest of the budget, drains its inbox and stops while the
// parked call still holds its batch. Run must not return — nor drain the
// port under that batch — until the call is released, and then it must
// return with every mbuf in the pool. The verdict comes on a fake clock;
// the window in which the test looks for an early return is wall time,
// and no length of it can fail a Run that waits.
func TestRunWaitsForAnAbandonedServe(t *testing.T) {
	port := dpdk.NewPort(dpdk.Config{PoolSize: 256})
	leakcheck.Pool(t, "port", port.PoolAvailable)
	stuck, release := make(chan struct{}), make(chan struct{})
	stage := &parkStage{stuck: stuck, release: release}
	r := &ShardedRunner{
		Port: port, Workers: 1, BatchSize: 4, Supervise: true,
		NewIsolated: func(int) (*Pipeline, error) {
			return NewIsolatedPipeline(sfi.NewManager(), []Operator{stage}, nil)
		},
		Policy: domain.Policy{
			Backoff:     20 * time.Microsecond,
			MaxRestarts: -1,
			HangAfter:   2 * time.Millisecond,
		},
	}
	const budget = 20
	fc := sim.NewFake()
	ran := make(chan error, 1)
	go func() {
		_, err := r.run(budget, fc)
		ran <- err
	}()
	<-stuck
	fc.Armed() // Spawn's wake armed the first hang poll
	snap := func() domain.Snapshot {
		sn, _ := r.SupervisorSnapshot()
		return sn
	}
	nextRestart(t, fc, snap)
	select {
	case err := <-ran:
		t.Fatalf("Run returned (%v) while a serve it abandoned still held its batch", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	if n := r.Snapshot().Batches; n != budget {
		t.Fatalf("%d batches served, want %d", n, budget)
	}
}
