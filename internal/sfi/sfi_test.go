package sfi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/linear"
	"repro/internal/telemetry"
)

// counter is a simple stateful object to export into domains.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) incr() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

func TestExportAndCall(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	rref, err := Export(d, &counter{})
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	got, err := CallResult(rref, "incr", func(c *counter) (int, error) {
		return c.incr(), nil
	})
	if err != nil || got != 1 {
		t.Fatalf("CallResult = (%d, %v), want (1, nil)", got, err)
	}
	if calls, _, _, _, exports := d.Stats.Snapshot(); calls != 1 || exports != 1 {
		t.Fatalf("stats calls=%d exports=%d", calls, exports)
	}
}

func TestFigure1Structure(t *testing.T) {
	// Figure 1: the object lives in the owner's reference table (strong
	// proxy); the client-side rref holds only a weak pointer.
	m := NewManager()
	d := m.NewDomain("owner")
	rref, err := Export(d, &counter{})
	if err != nil {
		t.Fatal(err)
	}
	if d.TableSize() != 1 {
		t.Fatalf("table size = %d, want 1", d.TableSize())
	}
	e := d.lookup(rref.Slot())
	if e == nil {
		t.Fatal("no table entry for exported object")
	}
	rc, ok := e.handle.(linear.Rc[*counter])
	if !ok {
		t.Fatalf("table holds %T", e.handle)
	}
	// Exactly one strong handle: the table's proxy. The rref is weak.
	if n := rc.StrongCount(); n != 1 {
		t.Fatalf("strong count = %d, want 1 (table only)", n)
	}
	w, ok := rref.bind.Load().weak.Upgrade()
	if !ok || !w.SameBox(rc) {
		t.Fatal("the rref's weak handle is not on the table's proxy")
	}
	_ = w.Drop()
}

func TestRevokeFailsClosed(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	rref, _ := Export(d, &counter{})
	d.Revoke(rref.Slot())
	if d.lookup(rref.Slot()) != nil {
		t.Fatal("slot still occupied after revoke")
	}
	if w, ok := rref.bind.Load().weak.Upgrade(); ok {
		_ = w.Drop()
		t.Fatal("rref alive after revoke")
	}
	err := rref.Call("incr", func(c *counter) error { return nil })
	if !errors.Is(err, ErrRevoked) {
		t.Fatalf("Call after revoke: err = %v, want ErrRevoked", err)
	}
	if _, _, _, revs, _ := d.Stats.Snapshot(); revs != 1 {
		t.Fatalf("revocations = %d, want 1", revs)
	}
}

func TestRevokeUnknownSlotIsNoop(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	d.Revoke(12345)
	if _, _, _, revs, _ := d.Stats.Snapshot(); revs != 0 {
		t.Fatalf("revocations = %d, want 0", revs)
	}
}

func TestPanicIsolatesAndFailsDomain(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("flaky")
	rref, _ := Export(d, &counter{})
	other, _ := Export(d, &counter{})

	err := rref.Call("boom", func(c *counter) error {
		panic("bounds check violation")
	})
	if !errors.Is(err, ErrDomainFailed) {
		t.Fatalf("err = %v, want ErrDomainFailed", err)
	}
	// The caller survived (we're still running) and the callee domain is
	// failed with a cleared reference table.
	if !d.Failed() {
		t.Fatal("domain not failed after panic")
	}
	if d.TableSize() != 0 {
		t.Fatalf("table size = %d after fault, want 0", d.TableSize())
	}
	// All other rrefs into the domain fail closed too.
	if err := other.Call("incr", func(c *counter) error { return nil }); !errors.Is(err, ErrDomainFailed) {
		t.Fatalf("sibling rref err = %v, want ErrDomainFailed", err)
	}
	if _, faults, _, _, _ := d.Stats.Snapshot(); faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
}

func TestRecoveryTransparentToClients(t *testing.T) {
	// §3: "The recovery process can re-populate the reference table, thus
	// making the failure transparent to clients of the domain."
	m := NewManager()
	d := m.NewDomain("svc")
	rref, _ := Export(d, &counter{n: 100})
	slot := rref.Slot()
	d.SetRecovery(func(d *Domain) error {
		return ExportAt(d, slot, &counter{n: 0}) // clean state
	})

	// Fault the domain.
	_ = rref.Call("boom", func(c *counter) error { panic("injected") })
	if !d.Failed() {
		t.Fatal("domain not failed")
	}
	if err := m.Recover(d); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !d.Live() {
		t.Fatal("domain not live after recovery")
	}
	// The *same* rref works again, now reaching the fresh object.
	got, err := CallResult(rref, "incr", func(c *counter) (int, error) { return c.incr(), nil })
	if err != nil {
		t.Fatalf("Call after recovery: %v", err)
	}
	if got != 1 {
		t.Fatalf("recovered counter = %d, want 1 (clean state)", got)
	}
	if _, _, recs, _, _ := d.Stats.Snapshot(); recs != 1 {
		t.Fatalf("recoveries = %d, want 1", recs)
	}
}

func TestRecoverRequiresFailedState(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	if err := m.Recover(d); err == nil {
		t.Fatal("Recover on live domain succeeded")
	}
}

func TestRecoveryFunctionFailureKeepsDomainFailed(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	rref, _ := Export(d, &counter{})
	d.SetRecovery(func(*Domain) error { return errors.New("init failed") })
	_ = rref.Call("boom", func(*counter) error { panic("x") })
	if err := m.Recover(d); err == nil {
		t.Fatal("Recover succeeded despite failing recovery fn")
	}
	if !d.Failed() {
		t.Fatal("domain should remain failed")
	}
}

func TestRebindWrongTypeRejected(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	rref, _ := Export(d, &counter{})
	slot := rref.Slot()
	d.SetRecovery(func(d *Domain) error {
		return ExportAt(d, slot, "not a counter") // wrong type on purpose
	})
	_ = rref.Call("boom", func(*counter) error { panic("x") })
	if err := m.Recover(d); err != nil {
		t.Fatal(err)
	}
	err := rref.Call("incr", func(*counter) error { return nil })
	if !errors.Is(err, ErrWrongType) {
		t.Fatalf("err = %v, want ErrWrongType", err)
	}
}

func TestCallMoveTransfersOwnership(t *testing.T) {
	// The zero-copy property: after sending a batch by move, the sender's
	// handle is dead; the callee (and then the caller, on return) holds a
	// live handle to the same underlying data — no copies.
	m := NewManager()
	d := m.NewDomain("stage")
	rref, _ := Export(d, &counter{})

	payload := []int{1, 2, 3}
	arg := linear.New(payload)
	stale := arg // a copy of the handle the sender might squirrel away

	out, err := CallMove(rref, "process", arg,
		func(c *counter, batch linear.Owned[[]int]) (linear.Owned[[]int], error) {
			c.incr()
			var first int
			if err := batch.With(func(s []int) { first = s[0] }); err != nil {
				return batch, err
			}
			if first != 1 {
				return batch, fmt.Errorf("bad payload")
			}
			return batch, nil
		})
	if err != nil {
		t.Fatalf("CallMove: %v", err)
	}
	// Sender's pre-move handle is dead: no residual access.
	if _, err := stale.Borrow(); !errors.Is(err, linear.ErrMoved) {
		t.Fatalf("stale handle borrow: err = %v, want ErrMoved", err)
	}
	// Caller received ownership back and the data was never copied.
	err = out.With(func(s []int) {
		if &s[0] != &payload[0] {
			t.Error("payload was copied across the boundary")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallMoveWithMovedArgFails(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("stage")
	rref, _ := Export(d, &counter{})
	arg := linear.New(1)
	_, _ = arg.Move() // consume it first
	_, err := CallMove(rref, "p", arg, func(c *counter, a linear.Owned[int]) (linear.Owned[int], error) {
		return a, nil
	})
	if !errors.Is(err, linear.ErrMoved) {
		t.Fatalf("err = %v, want ErrMoved", err)
	}
}

func TestCallMovePanicFailsDomainAndDropsNothingOnCaller(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("stage")
	rref, _ := Export(d, &counter{})
	arg := linear.New(42)
	_, err := CallMove(rref, "p", arg, func(c *counter, a linear.Owned[int]) (linear.Owned[int], error) {
		panic("stage crashed holding the batch")
	})
	if !errors.Is(err, ErrDomainFailed) {
		t.Fatalf("err = %v, want ErrDomainFailed", err)
	}
	// The batch went down with the domain: the caller cannot use it.
	if arg.Valid() {
		t.Fatal("caller still holds the batch after moving it into a crashed domain")
	}
}

// TestManagerRegistry: a manager hands out distinct domain IDs, and
// once given a registry it exports the counters of every domain it
// creates, labeled by domain name.
func TestManagerRegistry(t *testing.T) {
	m := NewManager()
	reg := telemetry.NewRegistry()
	m.SetRegistry(reg, telemetry.Labels{"worker": "0"})
	a := m.NewDomain("a")
	b := m.NewDomain("b")
	if a.id == b.id {
		t.Fatal("duplicate domain IDs")
	}
	rref, _ := Export(a, &counter{})
	if err := rref.Call("incr", func(c *counter) error { c.incr(); return nil }); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`sfi_calls_total{domain="a",worker="0"} 1`, `sfi_calls_total{domain="b",worker="0"} 0`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("registry lacks %q:\n%s", want, out.String())
		}
	}
}

func TestConcurrentCallsOneDomain(t *testing.T) {
	m := NewManager()
	d := m.NewDomain("svc")
	rref, _ := Export(d, &counter{})
	var wg sync.WaitGroup
	const workers = 16
	const perWorker = 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := rref.Call("incr", func(c *counter) error { c.incr(); return nil }); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := CallResult(rref, "read", func(c *counter) (int, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.n, nil
	})
	if err != nil || got != workers*perWorker {
		t.Fatalf("count = %d (%v), want %d", got, err, workers*perWorker)
	}
}

func TestConcurrentRebindAfterRecovery(t *testing.T) {
	// Many workers race the slow-path re-bind on one shared rref right
	// after a fault+recovery. Every call must succeed and the rref must
	// end with a consistent binding (regression test for the
	// atomically-published rrefBinding).
	for trial := 0; trial < 20; trial++ {
		m := NewManager()
		d := m.NewDomain("svc")
		rref, err := Export(d, &counter{})
		if err != nil {
			t.Fatal(err)
		}
		slot := rref.Slot()
		d.SetRecovery(func(d *Domain) error { return ExportAt(d, slot, &counter{}) })
		_ = rref.Call("boom", func(*counter) error { panic("x") })
		if err := m.Recover(d); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := rref.Call("incr", func(c *counter) error { c.incr(); return nil }); err != nil {
						t.Errorf("call: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		got, err := CallResult(rref, "read", func(c *counter) (int, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.n, nil
		})
		if err != nil || got != 16*20 {
			t.Fatalf("trial %d: count = %d (%v)", trial, got, err)
		}
	}
}

func TestConcurrentFaultAndCalls(t *testing.T) {
	// One goroutine repeatedly faults and recovers the domain while others
	// call through it; every call must either succeed or fail with a
	// domain-lifecycle error — never corrupt state or deadlock.
	m := NewManager()
	d := m.NewDomain("flaky")
	rref, _ := Export(d, &counter{})
	slot := rref.Slot()
	d.SetRecovery(func(d *Domain) error { return ExportAt(d, slot, &counter{}) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := rref.Call("incr", func(c *counter) error { c.incr(); return nil })
				if err != nil && !errors.Is(err, ErrDomainFailed) && !errors.Is(err, ErrRevoked) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_ = rref.Call("boom", func(*counter) error { panic("chaos") })
		_ = m.Recover(d)
	}
	close(stop)
	wg.Wait()
	// Ensure the domain ends usable.
	if d.Failed() {
		if err := m.Recover(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := rref.Call("incr", func(c *counter) error { return nil }); err != nil {
		t.Fatalf("final call: %v", err)
	}
}
