package sfi

import (
	"errors"
	"testing"
)

// TestDomainReset exercises the teardown a caught panic runs: on a live
// domain it clears the reference table and fails outstanding RRefs
// closed, and the standard Recover protocol brings the domain back.
func TestDomainReset(t *testing.T) {
	mgr := NewManager()
	d := mgr.NewDomain("svc")
	rref, err := Export(d, "payload")
	if err != nil {
		t.Fatal(err)
	}
	slot := rref.Slot()
	d.SetRecovery(func(d *Domain) error { return ExportAt(d, slot, "recovered") })

	if !d.teardown() {
		t.Fatal("teardown of a live domain reported no-op")
	}
	if !d.Failed() {
		t.Fatal("domain not failed after teardown")
	}
	if d.TableSize() != 0 {
		t.Fatalf("reference table has %d entries after teardown, want 0", d.TableSize())
	}
	if err := rref.Call("get", func(string) error { return nil }); !errors.Is(err, ErrDomainFailed) {
		t.Fatalf("Call after teardown: got %v, want ErrDomainFailed", err)
	}
	// teardown is idempotent on a non-live domain.
	if d.teardown() {
		t.Fatal("teardown of a failed domain reported a teardown")
	}

	if err := mgr.Recover(d); err != nil {
		t.Fatal(err)
	}
	got, err := CallResult(rref, "get", func(s string) (string, error) { return s, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != "recovered" {
		t.Fatalf("post-recovery value %q, want %q", got, "recovered")
	}
}

// TestDomainResetCountsFault pins teardown's accounting: one fault however
// often it runs, and the table revocations.
func TestDomainResetCountsFault(t *testing.T) {
	mgr := NewManager()
	d := mgr.NewDomain("svc")
	if _, err := Export(d, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Export(d, 2); err != nil {
		t.Fatal(err)
	}
	d.teardown()
	d.teardown() // no-op
	_, faults, _, revocations, _ := d.Stats.Snapshot()
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
	if revocations != 2 {
		t.Fatalf("revocations = %d, want 2", revocations)
	}
}

// TestStalledCallDoesNotPinStaleBinding is the regression for the
// pinned-proxy hazard the chaos harness exposed: an invocation in flight
// at teardown time holds the proxy's strong handle for its whole
// duration, so after teardown + Recover the shared RRef's weak upgrade
// still succeeds against the *retired* instance. The teardown-generation
// stamp must force new calls to re-bind to the recovered entry instead
// of reaching the object the teardown revoked.
func TestStalledCallDoesNotPinStaleBinding(t *testing.T) {
	type inst struct{ id int }
	mgr := NewManager()
	d := mgr.NewDomain("svc")
	rref, err := Export(d, &inst{id: 1})
	if err != nil {
		t.Fatal(err)
	}
	slot := rref.Slot()
	d.SetRecovery(func(d *Domain) error { return ExportAt(d, slot, &inst{id: 2}) })

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- rref.Call("stall", func(*inst) error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered // the stalled call now holds the old proxy's strong handle

	// Tear down and recover while the call is still in flight inside the
	// old instance (another caller's panic would do the same).
	if !d.teardown() {
		t.Fatal("teardown reported no-op")
	}
	if err := mgr.Recover(d); err != nil {
		t.Fatal(err)
	}

	got, err := CallResult(rref, "get", func(o *inst) (int, error) { return o.id, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("post-recovery call reached instance %d, want the recovered instance 2", got)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("stalled call finished with %v, want nil", err)
	}
}
