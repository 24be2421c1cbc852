package domain

import (
	"errors"
	"testing"

	"repro/internal/linear"
)

// FuzzMailboxOwnership drives a mailbox through an arbitrary operation
// sequence and checks the ownership contract the runtime is built on:
//
//  1. A send is a move — after Send/trySend returns, success or failure,
//     the sender's handle is dead: not Valid, not movable, not readable.
//  2. Payloads are conserved — every payload ever created is eventually
//     observed exactly once: consumed by a receiver, or destroyed by the
//     mailbox through the release hook (tail drop, post-close send,
//     drain). Nothing leaks, nothing is delivered twice.
//
// Inputs: capacity selector plus one opcode byte per step.
func FuzzMailboxOwnership(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 1, 2, 3, 0, 4})          // fill, overflow, recv, close, late send
	f.Add(uint8(4), []byte{0, 0, 0, 0, 0, 2, 2, 2, 2, 2}) // burst then drain by recv
	f.Add(uint8(2), []byte{0, 4, 0, 5})                   // double-send probe, then Drain
	f.Add(uint8(3), []byte{1, 1, 1, 3, 2, 2, 2, 2, 1})    // blocking sends, close, recv backlog
	f.Add(uint8(0), []byte{5, 0, 1, 2})                   // ops after Drain
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		capacity := int(capSel%8) + 1
		released := 0
		mb := NewMailbox(capacity, func(int) { released++ })

		// A closed quit makes recv return at once on an empty mailbox.
		quit := make(chan struct{})
		close(quit)
		created, received := 0, 0
		newPayload := func() linear.Owned[int] {
			created++
			return linear.New(created)
		}
		// checkDead asserts the post-send handle is unobservable.
		checkDead := func(v linear.Owned[int]) {
			t.Helper()
			if v.Valid() {
				t.Fatal("sender handle still Valid after send")
			}
			if _, err := v.Move(); err == nil {
				t.Fatal("sender re-moved a sent payload")
			}
			if err := v.With(func(int) {}); err == nil {
				t.Fatal("sender read a sent payload")
			}
		}

		for _, op := range ops {
			switch op % 6 {
			case 0: // trySend a fresh payload
				v := newPayload()
				_ = mb.trySend(v)
				checkDead(v)
			case 1: // Send, guarded so a full open mailbox cannot block forever
				if len(mb.ch) < cap(mb.ch) || mb.closed.Load() {
					v := newPayload()
					_ = mb.Send(v)
					checkDead(v)
				}
			case 2: // recv without waiting; consume what arrives
				if p, err := mb.recv(quit, nil); err == nil {
					if _, err := p.Into(); err != nil {
						t.Fatalf("received payload not owned: %v", err)
					}
					received++
				}
			case 3:
				mb.Close()
			case 4: // double-send: the second send of the same handle must
				// fail with a linearity error and enqueue nothing
				v := newPayload()
				depthAfter := -1
				if err := mb.trySend(v); err == nil || err == errMailboxFull || err == ErrMailboxClosed {
					depthAfter = mb.Depth()
				}
				if err := mb.trySend(v); !errors.Is(err, linear.ErrMoved) {
					t.Fatalf("double send: got %v, want linear.ErrMoved", err)
				}
				if depthAfter >= 0 && mb.Depth() != depthAfter {
					t.Fatal("double send changed mailbox depth")
				}
			case 5:
				mb.Drain()
			}
		}
		mb.Drain()

		// Conservation: every payload created was consumed by the receiver
		// or destroyed by the mailbox — exactly once.
		if received+released != created {
			t.Fatalf("conservation violated: received %d + released %d != created %d",
				received, released, created)
		}
		if got := int(mb.Stats.Recvs.Load()); got != received {
			t.Fatalf("recv stat %d != received %d", got, received)
		}
	})
}
