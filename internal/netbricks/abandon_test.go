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
// retired it, and panics once when armed.
type witnessStage struct {
	retired    atomic.Bool
	first      bool // the instance the stuck call bound to
	violations *atomic.Uint64
	armed      *atomic.Bool
	firstRan   chan<- struct{}
}

func (s *witnessStage) Name() string { return "witness" }

func (s *witnessStage) ProcessBatch(*Batch) error {
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
// access the chaos tier's witness counts). The stuck call is parked in
// the stage domain's policy hook — after the rref is acquired, before the
// operator runs — so the interleaving is forced, not waited for.
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
	newIsolated := func(int) (*IsolatedPipeline, error) {
		first := builds.Add(1) == 1
		cur := &witnessStage{first: first, violations: &violations, armed: &armed, firstRan: firstRan}
		ip, err := NewIsolatedPipeline(sfi.NewManager(), []Operator{cur}, []func() Operator{func() Operator {
			cur.retired.Store(true)
			retiredOne <- struct{}{}
			cur = &witnessStage{violations: &violations, armed: &armed, firstRan: firstRan}
			return cur
		}})
		if err != nil || !first {
			return ip, err
		}
		var calls atomic.Int32
		ip.Stages()[0].Domain.SetPolicy(sfi.PolicyFunc(func(sfi.DomainID, sfi.DomainID, string) error {
			if calls.Add(1) == 1 {
				stuck <- struct{}{}
				<-release
			}
			return nil
		}))
		return ip, nil
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
