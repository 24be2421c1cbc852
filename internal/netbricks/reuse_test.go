package netbricks

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/linear"
	"repro/internal/sfi"
)

// reuseStage parks the first call of the first pipeline built until the
// test releases it, reading its serve's sfi.Context from inside the stage
// once released; in every later pipeline it panics while faults are
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
	stuckCtx                 *sfi.Context // set and read on the parked call's goroutine
	depth                    int
	current                  sfi.DomainID
}

func (s *reuseStage) Name() string { return "reuse" }

func (s *reuseStage) ProcessBatch(b *Batch) error {
	tr := s.t
	if s.parked && tr.stuckBatch.CompareAndSwap(nil, b) {
		tr.parkedNow.Store(true)
		tr.stuck <- struct{}{}
		<-tr.release
		tr.depth, tr.current = tr.stuckCtx.Depth(), tr.stuckCtx.Current()
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
// faults and restarts several times — each of those restarts takes the
// context the faulted generation handed on, and each lost batch goes back
// to the worker's free list. Then the parked handler is released. Its
// sfi.Context must still hold exactly the stage domain it pushed (no
// successor reset or reused it), its batch must never have reached the
// free list the successors load from while it was parked, and the pool
// must get every mbuf back.
func TestAbandonedHandlerKeepsWhatItHolds(t *testing.T) {
	const faults = 5
	port := dpdk.NewPort(dpdk.Config{PoolSize: 256})
	initial := port.PoolAvailable()
	tr := &reuseTrace{stuck: make(chan struct{}, 1), release: make(chan struct{}), released: make(chan struct{})}
	mgr := sfi.NewManager() // one manager: every pipeline's stage domain has its own ID
	var builds atomic.Int32
	var parkedStage sfi.DomainID
	r := &ShardedRunner{
		Port: port, Workers: 1, BatchSize: 4, Supervise: true,
		NewIsolated: func(int) (*IsolatedPipeline, error) {
			first := builds.Add(1) == 1
			ip, err := NewIsolatedPipeline(mgr, []Operator{&reuseStage{parked: first, t: tr}}, nil)
			if err == nil && first {
				parkedStage = ip.Stages()[0].Domain.ID()
			}
			return ip, err
		},
		Policy: domain.Policy{
			Backoff:     20 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			MaxRestarts: -1,
			HangAfter:   2 * time.Millisecond,
		},
	}
	// Run's supervised body for one worker, with the first pipeline
	// wrapped so the parked call's context is in reach of its stage.
	r.stats = []*WorkerStats{{}}
	w, err := r.newWorker(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	parked := w.pipe.Load()
	w.pipe.Store(&workerPipeline{
		process: func(ctx *sfi.Context, b linear.Owned[*Batch]) (linear.Owned[*Batch], error) {
			tr.stuckCtx = ctx
			return parked.process(ctx, b)
		},
		recover: parked.recover,
	})
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

	if tr.depth != 1 || tr.current != parkedStage {
		t.Errorf("the released call's context is %d deep in domain %d, want 1 deep in its stage's domain %d", tr.depth, tr.current, parkedStage)
	}
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
