package netbricks

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/sfi"
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
// for.
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
	ran := make(chan error, 1)
	go func() {
		_, err := r.Run(50)
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
	wait(stuck, "the first call to park in the stage")
	// The next generation's first call through the stage faults, and its
	// recovery retires an instance.
	armed.Store(true)
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
	if sn, _ := r.SupervisorSnapshot(); sn.Hangs == 0 {
		t.Fatal("no hang verdict: the stuck call was never abandoned")
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d calls reached a retired stage instance", v)
	}
}
