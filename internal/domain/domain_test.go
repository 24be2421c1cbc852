package domain

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/sfi"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastPolicy keeps restart cycles microscopic so tests run in
// milliseconds.
func fastPolicy() Policy {
	return Policy{Backoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond, MaxRestarts: -1}
}

// TestDomainServes: payloads sent into the inbox reach the handler as
// owned values, in order.
func TestDomainServes(t *testing.T) {
	s := NewSupervisor(fastPolicy())
	defer s.Close()
	var got atomic.Int64
	d, err := Spawn(s, Config[int]{
		Name: "svc",
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			got.Add(int64(v))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := d.Inbox().Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Inbox().Close()
	<-d.Done()
	if got.Load() != 55 {
		t.Fatalf("sum = %d, want 55", got.Load())
	}
	sn := d.Snapshot()
	if sn.Processed != 10 || sn.Crashes != 0 || sn.State != StateStopped {
		t.Fatalf("snapshot %+v", sn)
	}
}

// TestDomainCrashRestart: a panicking handler is caught at the entry
// point, the payload is reclaimed through Release, the sfi reference
// table is cleared, and after restart the domain keeps serving — the §3
// cycle run as a service.
func TestDomainCrashRestart(t *testing.T) {
	s := NewSupervisor(fastPolicy())
	defer s.Close()
	var processed, released, recovered atomic.Int64
	d, err := Spawn(s, Config[int]{
		Name:    "crashy",
		Release: func(int) { released.Add(1) },
		Recover: func() error { recovered.Add(1); return nil },
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
			v, _ := msg.Borrow()
			crash := v.Value() < 0
			_ = v.Release()
			if crash {
				panic("injected")
			}
			if _, err := msg.Into(); err != nil {
				return err
			}
			processed.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Inbox().Send(linear.New(-1)); err != nil { // crash, payload abandoned
		t.Fatal(err)
	}
	if err := d.Inbox().Send(linear.New(2)); err != nil { // served post-restart
		t.Fatal(err)
	}
	waitFor(t, "post-restart processing", func() bool { return processed.Load() == 2 })
	if released.Load() != 1 {
		t.Fatalf("abandoned payload released %d times, want 1", released.Load())
	}
	if recovered.Load() != 1 {
		t.Fatalf("user recovery ran %d times, want 1", recovered.Load())
	}
	sn := d.Snapshot()
	if sn.Crashes != 1 || sn.Restarts != 1 || sn.Reclaimed != 1 {
		t.Fatalf("snapshot %+v", sn)
	}
	if sn.TimeInBackoff <= 0 {
		t.Fatal("no backoff recorded")
	}
}

// TestDomainErrorIsFault: a handler error return is a fault — same
// restart path as a panic.
func TestDomainErrorIsFault(t *testing.T) {
	s := NewSupervisor(fastPolicy())
	defer s.Close()
	var calls atomic.Int64
	d, err := Spawn(s, Config[int]{
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
			if calls.Add(1) == 1 {
				return errors.New("transient")
			}
			_, err := msg.Into()
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Inbox().Send(linear.New(1))
	_ = d.Inbox().Send(linear.New(2))
	waitFor(t, "restart after error", func() bool {
		sn := d.Snapshot()
		return sn.Errors == 1 && sn.Restarts >= 1 && sn.Processed == 1
	})
}

// TestDomainRRefsFailClosedAcrossCrash drives the paper's recovery
// contract through the supervisor: state exported into the domain's
// protection domain is revoked by the crash (outstanding RRefs fail
// closed) and transparently re-bound after the supervisor recovers the
// domain via the sfi recovery function.
func TestDomainRRefsFailClosedAcrossCrash(t *testing.T) {
	s := NewSupervisor(fastPolicy())
	defer s.Close()

	type counter struct{ n int }
	var rref *sfi.RRef[*counter]
	d, err := Spawn(s, Config[int]{
		Name: "stateful",
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			if v < 0 {
				panic("injected")
			}
			return rref.Call(c.SFI, "incr", func(ct *counter) error { ct.n++; return nil })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rref, err = sfi.Export(d.PD(), &counter{})
	if err != nil {
		t.Fatal(err)
	}
	slot := rref.Slot()
	d.PD().SetRecovery(func(pd *sfi.Domain) error {
		return sfi.ExportAt(pd, slot, &counter{}) // fresh state, same slot
	})

	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first increment", func() bool { return d.Snapshot().Processed == 1 })

	_ = d.Inbox().Send(linear.New(-1)) // crash
	waitFor(t, "crash detected", func() bool { return d.Snapshot().Crashes == 1 })

	// Between teardown and recovery the RRef fails closed.
	root := sfi.NewContext()
	if d.PD().Failed() {
		if err := rref.Call(root, "peek", func(*counter) error { return nil }); err == nil {
			t.Fatal("RRef still served after crash teardown")
		}
	}

	// After the supervisor restarts the domain, the same RRef re-binds to
	// the re-populated slot.
	_ = d.Inbox().Send(linear.New(2))
	waitFor(t, "post-recovery increment", func() bool { return d.Snapshot().Processed == 2 })
	n, err := sfi.CallResult(root, rref, "peek", func(ct *counter) (int, error) { return ct.n, nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered counter = %d, want 1 (fresh state + one post-recovery call)", n)
	}
}

// TestDomainStopsWhenBudgetExhausted: restart budget exhausted — the
// domain stops, its backlog is destroyed through Release, Done closes.
func TestDomainStopsWhenBudgetExhausted(t *testing.T) {
	p := fastPolicy()
	p.MaxRestarts = 1
	s := NewSupervisor(p)
	defer s.Close()
	var released atomic.Int64
	d, err := Spawn(s, Config[int]{
		Mailbox: 64,
		Release: func(int) { released.Add(1) },
		Handler: func(c *Ctx, msg linear.Owned[int]) error { panic("always") },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Inbox().Send(linear.New(i)); err != nil {
			break
		}
	}
	select {
	case <-d.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("domain did not stop")
	}
	if d.State() != StateStopped {
		t.Fatalf("state = %v, want stopped", d.State())
	}
	// Every payload is accounted for: 2 reclaimed at the entry point by
	// the two crashes, the backlog destroyed at stop.
	waitFor(t, "all payloads released", func() bool { return released.Load() == 10 })
	if err := d.Inbox().Send(linear.New(99)); !errors.Is(err, ErrMailboxClosed) {
		t.Fatalf("send after stop: %v, want ErrMailboxClosed", err)
	}
}

// TestDomainHangAbandonment: a handler stall beyond HangAfter is
// detected by heartbeat, the stuck goroutine superseded, and a
// replacement serves the next payload; the stalled invocation's late
// completion is still counted (payload conservation: every received
// payload is processed or released exactly once) but triggers no
// further lifecycle activity.
func TestDomainHangAbandonment(t *testing.T) {
	p := fastPolicy()
	p.HangAfter = 5 * time.Millisecond
	s := NewSupervisor(p)
	defer s.Close()
	stall := make(chan struct{})
	var processed atomic.Int64
	d, err := Spawn(s, Config[int]{
		Name: "staller",
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			if v < 0 {
				<-stall // hang until the test releases it
				return nil
			}
			processed.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Inbox().Send(linear.New(-1)) // hangs
	waitFor(t, "hang detection", func() bool { return d.Snapshot().Hangs >= 1 })
	_ = d.Inbox().Send(linear.New(1)) // served by the replacement
	waitFor(t, "replacement serving", func() bool { return processed.Load() == 1 })
	close(stall) // let the abandoned goroutine finish and exit
	waitFor(t, "restart accounting", func() bool {
		sn := d.Snapshot()
		return sn.Hangs == 1 && sn.Restarts >= 1
	})
	// The abandoned invocation's late completion is counted exactly once:
	// 2 payloads received, 2 processed, nothing lost or double-counted.
	waitFor(t, "late completion counted", func() bool { return d.Snapshot().Processed == 2 })
}

// TestOneStuckHandlerIsOneHang: a handler stuck for well over ten hang
// ticks costs one hang verdict and one restart. The replacement
// generation sits idle beside the abandoned one, and the abandoned
// invocation still marks the domain busy — but it is not the current
// generation's, so the next tick must not read the idle replacement as
// hung (it did, once per tick, while busy belonged to the domain).
func TestOneStuckHandlerIsOneHang(t *testing.T) {
	p := fastPolicy()
	p.HangAfter = 5 * time.Millisecond
	s := NewSupervisor(p)
	defer s.Close()
	stall := make(chan struct{})
	defer close(stall)
	d, err := Spawn(s, Config[int]{
		Name: "stuck",
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
			_, err := msg.Into()
			<-stall
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Inbox().Send(linear.New(1))
	waitFor(t, "the hang verdict and its restart", func() bool {
		sn := d.Snapshot()
		return sn.Hangs >= 1 && sn.Restarts >= 1
	})
	time.Sleep(15 * p.hangTick()) // the stuck handler stays stuck; the replacement idles
	if sn := d.Snapshot(); sn.Hangs != 1 || sn.Restarts != 1 {
		t.Fatalf("one stuck handler over 15 ticks: %d hangs and %d restarts, want 1 and 1", sn.Hangs, sn.Restarts)
	}
}

// TestSpawnValidation covers config errors.
func TestSpawnValidation(t *testing.T) {
	s := NewSupervisor(Policy{})
	if _, err := Spawn[int](s, Config[int]{}); err == nil {
		t.Fatal("Spawn without handler succeeded")
	}
	s.Close()
	if _, err := Spawn(s, Config[int]{Handler: func(*Ctx, linear.Owned[int]) error { return nil }}); !errors.Is(err, ErrSupervisorClosed) {
		t.Fatalf("Spawn on closed supervisor: %v", err)
	}
}

// TestStateString pins the state labels used in snapshots.
func TestStateString(t *testing.T) {
	for s, want := range map[State]string{StateLive: "live", StateBackoff: "backoff", StateStopped: "stopped", State(9): "state(9)"} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
	_ = fmt.Sprintf("%v", StateLive)
}
