// Supervised execution: each worker runs as a domain under a
// domain.Supervisor instead of a bare goroutine.
//
// An inline worker treats a fault as the end of its run (or, with
// AutoRecover, recovers on the spot). Supervision upgrades each worker to
// a long-lived service built from the same three functions (worker.go): a
// feeder goroutine pumps rx into the worker domain's mailbox — a blocking
// send, so a worker sitting in restart backoff exerts backpressure on its
// queue instead of losing batches — the domain's handler is serve, and
// its recovery function is recover. The supervisor absorbs worker faults
// — operator panics, pipeline errors, handler stalls — restarting workers
// under the configured policy while the other workers keep forwarding.
package netbricks

import (
	"fmt"
	"sync"

	"repro/internal/domain"
	"repro/internal/linear"
	"repro/internal/sim"
)

// runSupervised is Run's supervised body: spawn one supervised domain
// per worker under a supervisor on clk, plus one feeder per worker, wait
// for the feeders to exhaust their batch budget, the domains to drain and
// every batch to come home, then name the workers that did not last the
// run.
func (r *ShardedRunner) runSupervised(workers []*worker, depth, n int, clk sim.Clock) []error {
	pol := r.Policy
	if pol.Registry == nil {
		pol.Registry = r.Registry
	}
	sup := domain.NewSupervisor(pol, clk)
	defer sup.Close()
	r.sup.Store(sup)

	doms := make([]*domain.Domain[*Batch], len(workers))
	for q, w := range workers {
		d, err := w.spawn(sup, depth)
		if err != nil {
			return []error{err}
		}
		doms[q] = d
	}
	var wg sync.WaitGroup
	for q, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.feed(doms[q], n)
		}()
	}
	wg.Wait()
	var errs []error
	for _, d := range doms {
		<-d.Done()
		// Feeders only ever block on a full mailbox, so a mailbox destroys
		// payloads for one reason: its domain ran out of restart budget
		// (Policy.MaxRestarts) and stopped with batches still queued or
		// still arriving. The rest of that queue's budget went unserved.
		if sn := d.Snapshot(); sn.MailboxDrops > 0 {
			errs = append(errs, fmt.Errorf("netbricks: %s exhausted its restart budget (%d crashes, %d errors, %d hangs, %d restarts) and stopped with its queue unserved",
				sn.Name, sn.Crashes, sn.Errors, sn.Hangs, sn.Restarts))
		}
	}
	// A stopped domain may still have a serve out: one a hang verdict
	// abandoned, whose batch comes home when its stuck call returns.
	for _, w := range workers {
		w.free.wait()
	}
	return errs
}

// spawn starts the worker's supervised domain: serve behind a mailbox,
// recover as the §3 user recovery function.
func (w *worker) spawn(sup *domain.Supervisor, depth int) (*domain.Domain[*Batch], error) {
	r := w.r
	var state domain.Stateful
	if r.NewState != nil {
		state = r.NewState(w.q)
	}
	d, err := domain.Spawn(sup, domain.Config[*Batch]{
		Name:    fmt.Sprintf("worker-%d", w.q),
		Mailbox: depth,
		Handler: w.serve,
		Release: func(b *Batch) {
			// Batches serve never saw: backlog destroyed when the domain
			// stops, sends that arrive after it has.
			r.Port.FreeQueue(w.q, b.Pkts)
			r.Port.FreeQueue(w.q, b.Dropped)
			w.free.put(linear.Owned[*Batch]{}, b)
		},
		Recover: w.recover,
		State:   state,
	})
	if err != nil {
		return nil, err
	}
	// The mailbox's stage clock stamps the send/recv hops, so each trace
	// shows the queueing delay across the domain boundary (no tracer, no
	// hooks).
	d.Inbox().SetStageClock(mailboxStageClock(r.Tracer))
	return d, nil
}

// feed pumps up to n batches from the worker's queue into its domain's
// mailbox. Send blocks while the mailbox is full, and fails only when the
// domain has stopped for good — at which point the mailbox has already
// released the payload.
func (w *worker) feed(d *domain.Domain[*Batch], n int) {
	for i := 0; i < n; i++ {
		msg, ok := w.rx()
		if !ok || d.Inbox().Send(msg) != nil {
			break
		}
	}
	d.Inbox().Close()
}

// SupervisorSnapshot returns the domain-level aggregate for the current
// (or most recent) supervised run — crash/hang/restart detail the
// RunStats view folds into Faults/Recovered. ok is false when the runner
// has not run in supervised mode.
func (r *ShardedRunner) SupervisorSnapshot() (domain.Snapshot, bool) {
	sup := r.sup.Load()
	if sup == nil {
		return domain.Snapshot{}, false
	}
	return sup.Snapshot(), true
}

// DomainSnapshots returns per-worker domain snapshots for the current
// (or most recent) supervised run, in worker order.
func (r *ShardedRunner) DomainSnapshots() []domain.Snapshot {
	sup := r.sup.Load()
	if sup == nil {
		return nil
	}
	return sup.Snapshots()
}
