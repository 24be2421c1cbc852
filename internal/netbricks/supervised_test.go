package netbricks

import (
	"errors"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/linear"
	"repro/internal/sfi"
)

// TestSupervisedStageRRefFailsClosedAcrossRestart is the paper's §3
// recovery under supervision: a supervised domain serves an
// isolated pipeline whose second stage panics on its second batch. The
// panic tears the stage's protection domain down, so its RRef fails
// closed until the supervisor's restart runs the pipeline's Recover,
// which re-exports a fresh operator into the same slot; the same RRef
// then re-binds to it.
func TestSupervisedStageRRefFailsClosedAcrossRestart(t *testing.T) {
	crashing := &FaultInjector{PanicOn: 2}
	ip, err := NewIsolatedPipeline(sfi.NewManager(), []Operator{NullFilter{}, crashing},
		[]func() Operator{nil, func() Operator { return &FaultInjector{} }})
	if err != nil {
		t.Fatal(err)
	}
	dom, rref := ip.domains[1], ip.stages[1].rref

	sup := domain.NewSupervisor(domain.Policy{Backoff: 20 * time.Microsecond, MaxRestarts: -1})
	defer sup.Close()
	served := make(chan error, 1)
	checked := make(chan struct{}) // the torn-down stage has been looked at
	d, err := domain.Spawn(sup, domain.Config[*Batch]{
		Name: "worker-0",
		Handler: func(msg linear.Owned[*Batch]) error {
			out, err := ip.Process(msg)
			if err == nil {
				_, err = out.Into()
			}
			served <- err
			return err
		},
		// The restart waits until the test has seen the stage torn down.
		Recover: func() error { <-checked; return ip.Recover() },
	})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() error {
		if err := d.Inbox().Send(linear.New(&Batch{})); err != nil {
			t.Fatal(err)
		}
		return <-served
	}

	if err := serve(); err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if err := serve(); !errors.Is(err, sfi.ErrDomainFailed) {
		t.Fatalf("second batch: %v, want the stage panic (sfi.ErrDomainFailed)", err)
	}
	// Between the fault and the restart, the stage's RRef fails closed.
	if !dom.Failed() {
		t.Fatal("the panic did not tear the stage's protection domain down")
	}
	if err := rref.Call("peek", func(Operator) error { return nil }); !errors.Is(err, sfi.ErrDomainFailed) {
		t.Fatalf("RRef call before the restart: %v, want sfi.ErrDomainFailed", err)
	}
	close(checked)

	// After the supervisor's restart the same RRef re-binds to the fresh
	// operator, which has served exactly the one post-restart batch.
	if err := serve(); err != nil {
		t.Fatalf("batch after the restart: %v", err)
	}
	op, err := sfi.CallResult(rref, "peek", func(op Operator) (Operator, error) { return op, nil })
	if err != nil {
		t.Fatalf("RRef call after the restart: %v", err)
	}
	if fresh, ok := op.(*FaultInjector); !ok || fresh == crashing || fresh.seen.Load() != 1 {
		t.Fatalf("the RRef reached %#v after the restart, want a fresh injector that saw one batch", op)
	}
	if sn := d.Snapshot(); sn.Errors != 1 || sn.Restarts != 1 {
		t.Fatalf("snapshot %+v: want 1 error and 1 restart", sn)
	}
}
