// Rollback-recovery for middleboxes (Sherry et al., the paper's §5
// citation) on the one runner: a stateful stage faults, §3 recovery
// re-exports a fresh stage, and the runtime restores the NF state's last
// §5 checkpoint — taken by the reflect engine with no hand-written
// serialization — instead of resetting it. This is the path
// examples/rollback-middlebox runs, held to exact counts.
package netbricks_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/leakcheck"
	"repro/internal/linear"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/sfi"
)

// counterState is the state graph: Total and Alias are two handles on one
// Rc box, so a restore that broke sharing would show.
type counterState struct {
	Counts       map[packet.FiveTuple]int
	Total, Alias linear.Rc[int]
}

// flowCounter is the domain.Stateful owning the graph.
type flowCounter struct {
	mu          sync.Mutex
	st          *counterState
	checkpoints atomic.Int64
	rolledBack  atomic.Int64 // Total at the moment of the restore
}

func newCounterState() *counterState {
	total := linear.NewRc(0)
	return &counterState{Counts: make(map[packet.FiveTuple]int), Total: total, Alias: total.Clone()}
}

func (f *flowCounter) Checkpoint(e *checkpoint.Engine) (any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checkpoints.Add(1)
	return e.Checkpoint(f.st)
}

func (f *flowCounter) Restore(token any) error {
	v, err := token.(*checkpoint.Snapshot).Materialize()
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.st = v.(*counterState)
	f.rolledBack.Store(int64(f.st.Total.Get()))
	return nil
}

func (f *flowCounter) Reset() {
	f.mu.Lock()
	f.st = newCounterState()
	f.mu.Unlock()
}

// countingStage counts packets into the flowCounter. The armed instance
// panics once: on the first batch after the state has been checkpointed
// and a few batches have been counted on top of that, so the restart has
// an epoch to roll back to and something to lose.
type countingStage struct {
	f     *flowCounter
	armed bool
	since int // batches counted since the first checkpoint
}

func (*countingStage) Name() string { return "flow-counter" }

func (s *countingStage) ProcessBatch(b *netbricks.Batch) error {
	if s.armed && s.f.checkpoints.Load() > 0 {
		if s.since++; s.since > 3 {
			panic("injected flow-counter fault")
		}
	}
	time.Sleep(50 * time.Microsecond)
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	for _, p := range b.Pkts {
		s.f.st.Counts[p.Tuple()]++
		s.f.st.Total.Set(s.f.st.Total.Get() + 1)
	}
	return nil
}

func TestStageFaultRollsBackToCheckpoint(t *testing.T) {
	const batch, n = 4, 400
	port := dpdk.NewPort(dpdk.Config{PoolSize: 64, Gen: &dpdk.UniformFlows{Base: dpdk.DefaultSpec(), Flows: 8}})
	leakcheck.Pool(t, "port", port.PoolAvailable)
	fc := &flowCounter{st: newCounterState()}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: 1, BatchSize: batch, Supervise: true,
		Policy:   domain.Policy{Backoff: 20 * time.Microsecond, CheckpointEvery: time.Millisecond},
		NewState: func(int) domain.Stateful { return fc },
		NewIsolated: func(int) (*netbricks.IsolatedPipeline, error) {
			return netbricks.NewIsolatedPipeline(sfi.NewManager(),
				[]netbricks.Operator{netbricks.Parse{}, &countingStage{f: fc, armed: true}},
				[]func() netbricks.Operator{nil, func() netbricks.Operator { return &countingStage{f: fc} }})
		},
	}
	stats, err := r.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	sn, _ := r.SupervisorSnapshot()
	if stats.Faults != 1 || stats.Recovered != 1 || sn.Restores != 1 || sn.ColdStarts != 0 {
		t.Fatalf("stats %+v, restores %d, cold starts %d: want one fault, recovered by one checkpoint restore",
			stats, sn.Restores, sn.ColdStarts)
	}
	st := fc.st
	if !st.Total.SameBox(st.Alias) {
		t.Fatal("restore split the shared Rc box: Total and Alias no longer alias")
	}
	sum := 0
	for _, c := range st.Counts {
		sum += c
	}
	total, rolledBack := st.Total.Get(), int(fc.rolledBack.Load())
	if sum != total {
		t.Fatalf("per-flow counts sum to %d, Total says %d", sum, total)
	}
	// Bounded loss, not a clean slate: the restore came back with the
	// checkpointed packets, and all that is missing at the end is what was
	// counted between that checkpoint and the fault — the three batches the
	// armed stage let through, give or take an epoch that fell among them.
	lost := int(stats.Packets) - total
	if rolledBack == 0 || lost < 0 || lost > 3*batch {
		t.Fatalf("rolled back to %d packets; %d forwarded, %d counted, %d lost (want 0..%d)",
			rolledBack, stats.Packets, total, lost, 3*batch)
	}
}
