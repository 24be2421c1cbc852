package netbricks

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/sfi"
)

// reuseStage parks the first call of the first pipeline built until the
// test releases it; in every later pipeline it panics while faults are
// armed and reports any call that carries the parked call's batch.
type reuseStage struct {
	parked bool // the first pipeline's instance
	t      *reuseTrace
}

// reuseTrace is what the stages and the test share.
type reuseTrace struct {
	stuck, release, released chan struct{}
	faults                   atomic.Int32 // successor calls left to panic
	sawStuckBatch            atomic.Int32 // successor calls given the parked call's batch while it was parked
	stuckBatch               atomic.Pointer[Batch]
	parkedNow                atomic.Bool
}

func (s *reuseStage) Name() string { return "reuse" }

func (s *reuseStage) ProcessBatch(b *Batch) error {
	tr := s.t
	if s.parked && tr.stuckBatch.CompareAndSwap(nil, b) {
		tr.parkedNow.Store(true)
		tr.stuck <- struct{}{}
		<-tr.release
		tr.parkedNow.Store(false) // its serve may recycle the batch once this returns
		close(tr.released)
		return nil
	}
	if tr.parkedNow.Load() && b == tr.stuckBatch.Load() {
		tr.sawStuckBatch.Add(1)
	}
	if tr.faults.Add(-1) >= 0 {
		panic("reuse: injected fault")
	}
	return nil
}

// TestAbandonedHandlerKeepsWhatItHolds pins the restart path's reuse
// rule: reuse only what an exited generation held. A handler parks inside
// a stage past its hang verdict and stays there while its replacement
// faults and restarts several times — each lost batch goes back to the
// worker's free list. Then the parked handler is released. Its batch must
// never have reached the free list the successors load from while it was
// parked, and the pool must get every mbuf back.
func TestAbandonedHandlerKeepsWhatItHolds(t *testing.T) {
	const faults = 5
	port := dpdk.NewPort(dpdk.Config{PoolSize: 256})
	initial := port.PoolAvailable()
	tr := &reuseTrace{stuck: make(chan struct{}, 1), release: make(chan struct{}), released: make(chan struct{})}
	mgr := sfi.NewManager() // one manager: every pipeline's stage domain has its own ID
	var builds atomic.Int32
	r := &ShardedRunner{
		Port: port, Workers: 1, BatchSize: 4, Supervise: true,
		NewIsolated: func(int) (*Pipeline, error) {
			return NewIsolatedPipeline(mgr, []Operator{&reuseStage{parked: builds.Add(1) == 1, t: tr}}, nil)
		},
		Policy: domain.Policy{
			Backoff:     20 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			MaxRestarts: -1,
			HangAfter:   2 * time.Millisecond,
		},
	}
	// Run's supervised body for one worker.
	r.stats = []*WorkerStats{{}}
	w, err := r.newWorker(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	sup := domain.NewSupervisor(r.Policy)
	defer sup.Close()
	d, err := w.spawn(sup, 4)
	if err != nil {
		t.Fatal(err)
	}
	fed := make(chan struct{})
	go func() { // until the inbox closes below
		defer close(fed)
		w.feed(d, math.MaxInt)
	}()

	wait := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	select {
	case <-tr.stuck:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the first call to park")
	}
	wait("the hang verdict and a serving replacement", func() bool {
		sn := d.Snapshot()
		return sn.Hangs == 1 && sn.Restarts >= 1 && sn.Processed >= 1
	})
	tr.faults.Store(faults)
	wait("the replacement's faults and restarts", func() bool {
		sn := d.Snapshot()
		return sn.Errors == faults && sn.Restarts >= 1+faults && sn.Processed >= 2
	})
	stuck := tr.stuckBatch.Load()
	w.free.mu.Lock()
	for _, c := range w.free.cells {
		if c.batch == stuck {
			t.Error("the parked call's batch is on the free list while the call is still running")
		}
	}
	w.free.mu.Unlock()

	// Stop the traffic and let the replacement drain and stop, then
	// release the parked call: the one invocation still to complete is
	// its, and it completes only once its serve has settled.
	d.Inbox().Close()
	<-fed
	<-d.Done()
	settled := d.Snapshot().Processed + 1
	close(tr.release)
	<-tr.released
	wait("the parked serve to settle", func() bool { return d.Snapshot().Processed == settled })
	sup.Close()
	port.Drain()

	if n := tr.sawStuckBatch.Load(); n != 0 {
		t.Errorf("%d successor calls were handed the parked call's batch", n)
	}
	if sn := d.Snapshot(); sn.Hangs != 1 || sn.Errors != faults {
		t.Errorf("%d hangs and %d faulted calls, want 1 and %d", sn.Hangs, sn.Errors, faults)
	}
	if got := port.PoolAvailable(); got != initial {
		t.Errorf("%d mbufs back in the pool, want all %d", got, initial)
	}
}
