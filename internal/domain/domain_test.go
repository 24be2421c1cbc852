package domain

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/telemetry"
)

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
		Handler: func(msg linear.Owned[int]) error {
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
	p := fastPolicy()
	s, fc := fakeSupervisor(p)
	defer s.Close()
	var released, recovered atomic.Int64
	served := make(chan int, 2)
	d, err := Spawn(s, Config[int]{
		Name:    "crashy",
		Release: func(int) { released.Add(1) },
		Recover: func() error { recovered.Add(1); return nil },
		Handler: func(msg linear.Owned[int]) error {
			v, _ := msg.Borrow()
			crash := v.Value() < 0
			_ = v.Release()
			if crash {
				panic("injected")
			}
			x, err := msg.Into()
			if err != nil {
				return err
			}
			served <- x
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.expectArmed(t, time.Time{})      // Spawn's wake: nothing to schedule
	for _, v := range []int{1, -1, 2} { // the crash abandons -1; 2 is served after the restart
		if err := d.Inbox().Send(linear.New(v)); err != nil {
			t.Fatal(err)
		}
	}
	<-served
	fc.expectArmed(t, fc.now().Add(p.Backoff)) // the crash, handled
	fc.step(t, p.Backoff)
	fc.expectArmed(t, time.Time{}) // the restart
	<-served
	d.Inbox().Close()
	<-d.Done()
	if released.Load() != 1 {
		t.Fatalf("abandoned payload released %d times, want 1", released.Load())
	}
	if recovered.Load() != 1 {
		t.Fatalf("user recovery ran %d times, want 1", recovered.Load())
	}
	sn := d.Snapshot()
	if sn.Processed != 2 || sn.Crashes != 1 || sn.Restarts != 1 || sn.Reclaimed != 1 {
		t.Fatalf("snapshot %+v", sn)
	}
	if sn.TimeInBackoff != p.Backoff {
		t.Fatalf("backoff recorded %v, want %v", sn.TimeInBackoff, p.Backoff)
	}
}

// TestDomainErrorIsFault: a handler error return is a fault — same
// restart path as a panic.
func TestDomainErrorIsFault(t *testing.T) {
	p := fastPolicy()
	s, fc := fakeSupervisor(p)
	defer s.Close()
	var calls atomic.Int64
	d, err := Spawn(s, Config[int]{
		Handler: func(msg linear.Owned[int]) error {
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
	fc.expectArmed(t, time.Time{})
	_ = d.Inbox().Send(linear.New(1))
	_ = d.Inbox().Send(linear.New(2))
	fc.expectArmed(t, fc.now().Add(p.Backoff))
	fc.step(t, p.Backoff)
	fc.expectArmed(t, time.Time{})
	d.Inbox().Close()
	<-d.Done()
	if sn := d.Snapshot(); sn.Errors != 1 || sn.Restarts != 1 || sn.Processed != 1 {
		t.Fatalf("snapshot %+v: want 1 error, 1 restart, 1 processed", sn)
	}
}

// TestDomainStopsWhenBudgetExhausted: restart budget exhausted — the
// domain stops, its backlog is destroyed through Release, Done closes.
func TestDomainStopsWhenBudgetExhausted(t *testing.T) {
	p := fastPolicy()
	p.MaxRestarts = 1
	s, fc := fakeSupervisor(p)
	defer s.Close()
	var released atomic.Int64
	d, err := Spawn(s, Config[int]{
		Mailbox: 64,
		Release: func(int) { released.Add(1) },
		Handler: func(msg linear.Owned[int]) error { panic("always") },
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.expectArmed(t, time.Time{})
	for i := 0; i < 10; i++ {
		if err := d.Inbox().Send(linear.New(i)); err != nil {
			break
		}
	}
	fc.expectArmed(t, fc.now().Add(p.Backoff)) // the first crash
	fc.step(t, p.Backoff)                      // the restart, whose first payload crashes too
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
	if n := released.Load(); n != 10 {
		t.Fatalf("%d payloads released, want 10", n)
	}
	if err := d.Inbox().Send(linear.New(99)); !errors.Is(err, ErrMailboxClosed) {
		t.Fatalf("send after stop: %v, want ErrMailboxClosed", err)
	}
}

// awaitHangVerdict steps the clock from one deadline to the next until
// the monitor gives d's stuck invocation, which began at beat, its hang
// verdict. The verdict must come after HangAfter and by HangAfter plus
// one poll. It returns the deadline armed after the verdict.
func awaitHangVerdict[T any](t *testing.T, fc *fakeClock, d *Domain[T], p Policy, beat time.Time) time.Time {
	t.Helper()
	var at time.Time
	for i := 0; d.Snapshot().Hangs == 0; i++ {
		if i == 1000 {
			t.Fatal("no hang verdict")
		}
		at = fc.next()
	}
	if lag := fc.now().Sub(beat); lag <= p.HangAfter || lag > p.HangAfter+p.hangTick() {
		t.Fatalf("hang verdict %v into the stuck invocation, want within (%v, %v]", lag, p.HangAfter, p.HangAfter+p.hangTick())
	}
	return at
}

// TestDomainHangAbandonment: a handler stall beyond HangAfter is
// detected by heartbeat, the stuck goroutine superseded, and a
// replacement serves the next payload. (That the stalled invocation's
// late completion is still counted once is
// TestAbandonedLateSuccessCountsOnce.)
func TestDomainHangAbandonment(t *testing.T) {
	p := fastPolicy()
	p.HangAfter = 5 * time.Millisecond
	s, fc := fakeSupervisor(p)
	defer s.Close()
	entered, stall := make(chan struct{}), make(chan struct{})
	served := make(chan int, 1)
	d, err := Spawn(s, Config[int]{
		Name: "staller",
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			if v < 0 {
				entered <- struct{}{}
				<-stall // hang until the test releases it
				return nil
			}
			served <- v
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.expectArmed(t, fc.now().Add(p.hangTick()))
	_ = d.Inbox().Send(linear.New(-1)) // hangs
	<-entered
	at := awaitHangVerdict(t, fc, d, p, fc.now())
	if want := fc.now().Add(p.Backoff); !at.Equal(want) {
		t.Fatalf("after the verdict the monitor armed at %v, want the restart at %v", fc.since(at), fc.since(want))
	}
	fc.next()                         // the restart
	_ = d.Inbox().Send(linear.New(1)) // served by the replacement
	<-served
	close(stall) // let the abandoned goroutine finish and exit
	if sn := d.Snapshot(); sn.Hangs != 1 || sn.Restarts != 1 {
		t.Fatalf("snapshot %+v: want 1 hang and 1 restart", sn)
	}
}

// TestOneStuckHandlerIsOneHang: a handler stuck for fifteen hang polls
// past its verdict costs one hang verdict and one restart. The
// replacement generation sits idle beside the abandoned one, and the
// abandoned invocation still marks the domain busy — but it is not the
// current generation's, so the next poll must not read the idle
// replacement as hung (it did, once per poll, while busy belonged to the
// domain).
func TestOneStuckHandlerIsOneHang(t *testing.T) {
	p := fastPolicy()
	p.HangAfter = 5 * time.Millisecond
	s, fc := fakeSupervisor(p)
	defer s.Close()
	entered, stall := make(chan struct{}), make(chan struct{})
	defer close(stall)
	d, err := Spawn(s, Config[int]{
		Name: "stuck",
		Handler: func(msg linear.Owned[int]) error {
			_, err := msg.Into()
			entered <- struct{}{}
			<-stall
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.expectArmed(t, fc.now().Add(p.hangTick()))
	_ = d.Inbox().Send(linear.New(1))
	<-entered
	awaitHangVerdict(t, fc, d, p, fc.now())
	fc.next() // the restart
	for i := 0; i < 15; i++ {
		fc.next() // a hang poll: the stuck handler stays stuck; the replacement idles
	}
	if sn := d.Snapshot(); sn.Hangs != 1 || sn.Restarts != 1 {
		t.Fatalf("one stuck handler over 15 polls: %d hangs and %d restarts, want 1 and 1", sn.Hangs, sn.Restarts)
	}
}

// TestLifecycleOnOneClock drives one checkpointing domain through its
// whole lifecycle on the fake clock, each step at the instant the policy
// names and not a nanosecond before: fault → restart at Backoff,
// restoring Spawn's seed → second fault → restart at 2·Backoff, the same
// → idle epoch at CheckpointEvery → hang
// verdict by HangAfter plus one poll → restart at 4·Backoff, restoring
// that epoch → a fault that takes the streak past MaxRestarts → stop.
func TestLifecycleOnOneClock(t *testing.T) {
	const (
		ok = iota
		fault
		hang
	)
	p := Policy{
		Backoff:         time.Millisecond,
		MaxBackoff:      time.Second,
		MaxRestarts:     3,
		HangAfter:       40 * time.Millisecond,
		CheckpointEvery: 5 * time.Millisecond,
	}
	exhausted := make(chan string, 1)
	p.OnExhausted = func(name string, _ []telemetry.Event) { exhausted <- name }
	s, fc := fakeSupervisor(p)
	defer s.Close()
	t0 := fc.now()
	st := newKVState()
	st.captured = make(chan struct{}, 8)
	entered, stall := make(chan struct{}), make(chan struct{})
	defer close(stall)
	d, err := Spawn(s, Config[int]{
		Name:  "life",
		State: st,
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			switch v {
			case fault:
				panic("injected")
			case hang:
				entered <- struct{}{}
				<-stall
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-st.captured // the seed, at Spawn
	send := func(v int) {
		t.Helper()
		if err := d.Inbox().Send(linear.New(v)); err != nil {
			t.Fatal(err)
		}
	}
	// exactlyAt moves the clock to at, checking the alarm was armed for
	// at and not a nanosecond earlier.
	exactlyAt := func(at time.Time, what string) {
		t.Helper()
		if fc.moveTo(at.Add(-time.Nanosecond)) || !fc.moveTo(at) {
			t.Fatalf("%s did not fire at exactly %v", what, fc.since(at))
		}
	}
	firstEpoch := t0.Add(p.CheckpointEvery)
	fc.expectArmed(t, firstEpoch) // the epoch comes before the first hang poll

	for i, backoff := range []time.Duration{p.Backoff, 2 * p.Backoff} {
		send(fault)
		restart := fc.now().Add(backoff)
		fc.expectArmed(t, restart)
		exactlyAt(restart, "the restart")
		fc.expectArmed(t, firstEpoch)
		if n := d.Snapshot().Restarts; n != uint64(i+1) {
			t.Fatalf("%d restarts after fault %d", n, i+1)
		}
	}

	exactlyAt(firstEpoch, "the idle epoch")
	fc.expectArmed(t, firstEpoch.Add(p.CheckpointEvery))
	<-st.captured
	send(hang) // served after the epoch is published
	<-entered
	if at, ok := d.lastCheckpoint(); !ok || !at.Equal(firstEpoch) {
		t.Fatalf("last checkpoint at %v (%v), want %v", fc.since(at), ok, fc.since(firstEpoch))
	}

	restart := awaitHangVerdict(t, fc, d, p, firstEpoch)
	if want := fc.now().Add(4 * p.Backoff); !restart.Equal(want) {
		t.Fatalf("the hang's restart armed at %v, want %v", fc.since(restart), fc.since(want))
	}
	exactlyAt(restart, "the restart after the hang")
	fc.armed()
	if sn := d.Snapshot(); sn.Restarts != 3 || sn.Restores != 3 || sn.ColdStarts != 0 {
		t.Fatalf("snapshot %+v: want 3 restarts, each restoring: the seed twice, then the epoch", sn)
	}

	send(fault) // the fourth fault in a row: past MaxRestarts
	<-d.Done()
	if name := <-exhausted; name != "life" {
		t.Fatalf("OnExhausted(%q)", name)
	}
	if sn := d.Snapshot(); sn.State != StateStopped || sn.Crashes != 3 || sn.Hangs != 1 || sn.Restarts != 3 {
		t.Fatalf("snapshot %+v: want stopped after 3 crashes, 1 hang and 3 restarts", sn)
	}
}

// TestSpawnValidation covers config errors.
func TestSpawnValidation(t *testing.T) {
	s := NewSupervisor(Policy{})
	if _, err := Spawn[int](s, Config[int]{}); err == nil {
		t.Fatal("Spawn without handler succeeded")
	}
	s.Close()
	if _, err := Spawn(s, Config[int]{Handler: func(linear.Owned[int]) error { return nil }}); !errors.Is(err, ErrSupervisorClosed) {
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
