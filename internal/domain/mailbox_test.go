package domain

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/linear"
)

// TestMailboxSendIsMove pins the core invariant: after any send —
// successful, dropped, or rejected — the sender's handle is dead.
func TestMailboxSendIsMove(t *testing.T) {
	var released atomic.Int64
	mb := NewMailbox[int](1, func(int) { released.Add(1) })

	v := linear.New(1)
	if err := mb.Send(v); err != nil {
		t.Fatal(err)
	}
	if v.Valid() {
		t.Fatal("sender handle still valid after Send")
	}

	// Mailbox full: trySend tail-drops, sender handle still dies.
	v2 := linear.New(2)
	if err := mb.trySend(v2); !errors.Is(err, errMailboxFull) {
		t.Fatalf("trySend on full: got %v, want errMailboxFull", err)
	}
	if v2.Valid() {
		t.Fatal("sender handle still valid after dropped trySend")
	}
	if released.Load() != 1 {
		t.Fatalf("release ran %d times, want 1", released.Load())
	}
	if mb.Stats.Drops.Load() != 1 {
		t.Fatalf("drops = %d, want 1", mb.Stats.Drops.Load())
	}

	// The queued payload arrives owned.
	got, err := mb.recv(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := got.Into()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("received %d, want 1", n)
	}
}

// TestMailboxSendMovedHandle: a stale handle cannot be sent (double-send
// of the same payload is a linearity violation, not a silent duplicate).
func TestMailboxSendMovedHandle(t *testing.T) {
	mb := NewMailbox[int](2, nil)
	v := linear.New(7)
	if err := mb.Send(v); err != nil {
		t.Fatal(err)
	}
	if err := mb.Send(v); !errors.Is(err, linear.ErrMoved) {
		t.Fatalf("second send of moved handle: got %v, want linear.ErrMoved", err)
	}
	if mb.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (no duplicate enqueued)", mb.Depth())
	}
}

// TestMailboxCloseSemantics: queued payloads survive a close, late sends
// are destroyed through the release hook, drained receivers see
// ErrMailboxClosed.
func TestMailboxCloseSemantics(t *testing.T) {
	var released atomic.Int64
	mb := NewMailbox[int](4, func(int) { released.Add(1) })
	for i := 0; i < 3; i++ {
		if err := mb.Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
	}
	mb.Close()
	mb.Close() // idempotent

	if err := mb.Send(linear.New(99)); !errors.Is(err, ErrMailboxClosed) {
		t.Fatalf("send after close: got %v, want ErrMailboxClosed", err)
	}
	if released.Load() != 1 {
		t.Fatalf("post-close send not released (released=%d)", released.Load())
	}
	for i := 0; i < 3; i++ {
		got, err := mb.recv(nil, nil)
		if err != nil {
			t.Fatalf("recv %d after close: %v", i, err)
		}
		n, _ := got.Into()
		if n != i {
			t.Fatalf("recv %d = %d (FIFO violated)", i, n)
		}
	}
	if _, err := mb.recv(nil, nil); !errors.Is(err, ErrMailboxClosed) {
		t.Fatalf("recv on drained closed mailbox: got %v, want ErrMailboxClosed", err)
	}
}

// TestMailboxDrain destroys the backlog through the release hook.
func TestMailboxDrain(t *testing.T) {
	var released atomic.Int64
	mb := NewMailbox[int](8, func(int) { released.Add(1) })
	for i := 0; i < 5; i++ {
		if err := mb.Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := mb.Drain(); n != 5 {
		t.Fatalf("Drain destroyed %d, want 5", n)
	}
	if released.Load() != 5 {
		t.Fatalf("release ran %d times, want 5", released.Load())
	}
	if mb.Depth() != 0 || !mb.closed.Load() {
		t.Fatal("mailbox not empty+closed after Drain")
	}
}

// TestSendRacingDrain: a Send that passed the closed check while Drain
// ran either hands its payload to a receiver or destroys it through the
// release hook — never leaves it queued with nobody left to receive it.
// On even rounds the send hook holds the first send past its closed
// check until Drain has returned and the receiver has gone, which forces
// the late enqueue half the time (select picks at random between the room
// and the closed done); odd rounds race freely.
func TestSendRacingDrain(t *testing.T) {
	const rounds, per = 10_000, 3
	for i := 0; i < rounds; i++ {
		var got [per]atomic.Int32 // receptions plus releases, per payload
		mb := NewMailbox[int](per, func(v int) { got[v].Add(1) })
		entered, drained := make(chan struct{}), make(chan struct{})
		held := i%2 == 0
		if held {
			mb.SetStageClock(func(int) {
				entered <- struct{}{}
				<-drained
			}, nil)
		}
		received, sent := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(received)
			for {
				p, err := mb.recv(nil, nil)
				if err != nil {
					return
				}
				if v, err := p.Into(); err == nil {
					got[v].Add(1)
				}
			}
		}()
		go func() {
			defer close(sent)
			for v := 0; v < per; v++ {
				_ = mb.Send(linear.New(v))
			}
		}()
		if held {
			<-entered
			mb.Drain()
			<-received // nobody is left to receive a late enqueue
		} else {
			mb.Drain()
		}
		close(drained)
		<-sent
		<-received
		for v := range got {
			if n := got[v].Load(); n != 1 {
				t.Fatalf("round %d: payload %d received or released %d times, want once", i, v, n)
			}
		}
	}
}

// TestMailboxBlockingSendUnblocksOnClose: a sender parked on a full
// mailbox is woken by Close and its payload destroyed, not stranded.
func TestMailboxBlockingSendUnblocksOnClose(t *testing.T) {
	var released atomic.Int64
	mb := NewMailbox[int](1, func(int) { released.Add(1) })
	if err := mb.Send(linear.New(0)); err != nil {
		t.Fatal(err)
	}
	errC := make(chan error)
	go func() { errC <- mb.Send(linear.New(1)) }()
	mb.Close()
	if err := <-errC; !errors.Is(err, ErrMailboxClosed) {
		t.Fatalf("blocked send after close: got %v, want ErrMailboxClosed", err)
	}
	if released.Load() != 1 {
		t.Fatalf("blocked payload not released (released=%d)", released.Load())
	}
}

// TestQueuedPayloadBeatsTheWake: a payload and a checkpoint wake that
// become ready together reach a receiver that has just found the mailbox
// empty; the payload wins, and the wake stays pending for the next idle
// instant. A receiver between its two selects sees both ready at once,
// and select alone would pick at random. The receiver starts each round
// as the sender posts, after a delay that varies by round, so some rounds
// land in that window.
func TestQueuedPayloadBeatsTheWake(t *testing.T) {
	const rounds = 200000
	mb := NewMailbox[int](1, nil)
	wake := make(chan struct{}, 1)
	got := make(chan error, 1)
	var turn atomic.Int64
	defer turn.Store(-1) // stops the receiver if a round fails
	go func() {
		for i := int64(1); i <= rounds; i++ {
			for t := turn.Load(); t != i; t = turn.Load() {
				if t < 0 {
					return
				}
				runtime.Gosched()
			}
			p, err := mb.recv(nil, wake)
			if err == nil {
				_, err = p.Into()
			}
			got <- err
		}
	}()
	var sink int
	for i := 1; i <= rounds; i++ {
		turn.Store(int64(i))
		for j := 0; j < i%64; j++ {
			sink += j
		}
		if err := mb.Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
		wake <- struct{}{}
		if err := <-got; err != nil {
			t.Fatalf("round %d: recv returned %v with a payload queued", i, err)
		}
		select {
		case <-wake:
		default:
			t.Fatalf("round %d: the payload took the wake with it", i)
		}
	}
	_ = sink
}
