// Rollback-middlebox: the §5 "applications" layer in action. A stateful
// monitoring NF (per-flow packet counter) runs as a stage in its own
// protection domain; its state graph is checkpointed automatically once
// per epoch, with no hand-written serialization. When a fault is
// injected, §3 recovery restores the last snapshot instead of clean
// state — rollback-recovery for middleboxes (Sherry et al.) with bounded
// state loss — on the mechanism nf-pipeline itself runs on: a
// domain.Stateful under a supervised netbricks.ShardedRunner. The same
// engine then ships a snapshot of the state to a standby replica.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/linear"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/sfi"
)

// monitorState is the NF's state graph: packets per flow; Total is shared
// through Rc so restores must preserve aliasing.
type monitorState struct {
	Counts map[packet.FiveTuple]int
	Total  linear.Rc[int]
}

func newMonitorState() *monitorState {
	return &monitorState{Counts: make(map[packet.FiveTuple]int), Total: linear.NewRc(0)}
}

// monitor owns the state and is the domain.Stateful the runtime
// checkpoints and restores. It lives outside the stage's protection
// domain, so it survives the stage's faults.
type monitor struct {
	mu sync.Mutex
	st *monitorState
	// atFault is the packet total when the stage faulted, and lost what
	// the rollback took back from it: the packets counted since the
	// last checkpoint.
	atFault, lost int
}

func (m *monitor) Checkpoint(e *checkpoint.Engine) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return e.Checkpoint(m.st)
}

func (m *monitor) Restore(token any) error {
	restored, err := token.(*checkpoint.Snapshot).Materialize()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st = restored.(*monitorState)
	m.lost = m.atFault - m.st.Total.Get()
	fmt.Println("FAULT contained in the monitor's protection domain; rolled back to the last checkpoint")
	return nil
}

// The run's timing: a slow middlebox, at least batchPeriod a batch of
// batchSize packets, checkpointed every epoch.
const (
	batchSize   = 4
	batchPeriod = time.Millisecond
	epoch       = 3 * time.Millisecond
)

// lossBound is the most a rollback can take back. A domain checkpoints
// after the first batch that ends an epoch or more after its last
// checkpoint began, and every batch takes at least batchPeriod, so at
// most epoch/batchPeriod batches are counted after the last checkpoint
// (the faulting batch counts nothing).
const lossBound = int(epoch/batchPeriod) * batchSize

// monitorStage is the pipeline stage counting into the monitor; recovery
// re-exports a fresh one.
type monitorStage struct {
	m       *monitor
	panicOn int
	seen    int
}

func (s *monitorStage) Name() string { return "monitor" }

func (s *monitorStage) ProcessBatch(b *netbricks.Batch) error {
	s.seen++
	if s.seen == s.panicOn {
		s.m.mu.Lock()
		s.m.atFault = s.m.st.Total.Get()
		s.m.mu.Unlock()
		panic("injected monitor fault")
	}
	time.Sleep(batchPeriod)
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	for _, p := range b.Pkts {
		s.m.st.Counts[p.Tuple()]++
		s.m.st.Total.Set(s.m.st.Total.Get() + 1)
	}
	return nil
}

func main() {
	log.SetFlags(0)

	mon := &monitor{st: newMonitorState()}
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: 64,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 6, 1),
	})
	runner := netbricks.ShardedRunner{
		Port: port, Workers: 1, BatchSize: batchSize, Supervise: true,
		Policy:   domain.Policy{CheckpointEvery: epoch},
		NewState: func(int) domain.Stateful { return mon },
		NewIsolated: func(int) (*netbricks.Pipeline, error) {
			// The first stage instance crashes on its 6th batch;
			// replacements are healthy.
			return netbricks.NewIsolatedPipeline(sfi.NewManager(),
				[]netbricks.Operator{netbricks.Parse{}, &monitorStage{m: mon, panicOn: 6}},
				[]func() netbricks.Operator{nil, func() netbricks.Operator { return &monitorStage{m: mon} }})
		},
	}
	stats, err := runner.Run(12)
	if err != nil {
		log.Fatal(err)
	}
	sn, _ := runner.SupervisorSnapshot()
	fmt.Printf("\nmonitor: %d batches forwarded, %d lost to the fault, %d rollback-restores\n",
		stats.Batches, stats.Faults, sn.Restores)
	if mon.lost < 0 || mon.lost > lossBound {
		log.Fatalf("state loss: the rollback took back %d packets, over the bound of %d", mon.lost, lossBound)
	}
	fmt.Printf("state loss within the bound: at most %d packets (%v epoch / %v batches = %d batches of %d)\n",
		lossBound, epoch, batchPeriod, lossBound/batchSize, batchSize)
	fmt.Println("— the last checkpoint, not a clean-slate reset: the §5 automation applied to §3 recovery.")

	// Replication on the same machinery: the standby materializes its own
	// copy of a snapshot of the NF state.
	snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(mon.st)
	if err != nil {
		log.Fatal(err)
	}
	replica, err := snap.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	standby := replica.(*monitorState)
	if len(standby.Counts) != len(mon.st.Counts) || standby.Total.Get() != mon.st.Total.Get() {
		log.Fatalf("standby replica differs: %d flows and %d packets, live %d and %d",
			len(standby.Counts), standby.Total.Get(), len(mon.st.Counts), mon.st.Total.Get())
	}
	fmt.Println("\nstandby replica synced: equal to the live state")
}
