package domain

import (
	"errors"
	"testing"

	"repro/internal/linear"
)

// TestMailboxStageClock: the trace hooks fire once per payload on each
// side of the hop — onSend while the sender still owns the payload
// (before enqueue), onRecv at dequeue — on every send/recv variant, and
// never for payloads that were dropped instead of delivered.
func TestMailboxStageClock(t *testing.T) {
	mb := NewMailbox[int](1, nil)
	var sent, recvd []int
	mb.SetStageClock(
		func(v int) { sent = append(sent, v) },
		func(v int) { recvd = append(recvd, v) },
	)

	if err := mb.Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	// Full mailbox: trySend drops the payload. The send hook has already
	// stamped it (the hook runs while the sender owns the payload, before
	// the enqueue decides), but it must never reach the recv side.
	if err := mb.trySend(linear.New(99)); !errors.Is(err, errMailboxFull) {
		t.Fatalf("trySend on full: %v", err)
	}
	got, err := mb.recv(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Into(); v != 1 {
		t.Fatalf("received %d, want 1", v)
	}

	if err := mb.trySend(linear.New(2)); err != nil {
		t.Fatal(err)
	}
	got2, ok := mb.tryRecv()
	if !ok {
		t.Fatal("tryRecv found nothing")
	}
	if v, _ := got2.Into(); v != 2 {
		t.Fatalf("received %d, want 2", v)
	}

	wantSent := []int{1, 99, 2}
	wantRecvd := []int{1, 2}
	if len(sent) != len(wantSent) {
		t.Fatalf("send hook fired on %v, want %v", sent, wantSent)
	}
	for i := range wantSent {
		if sent[i] != wantSent[i] {
			t.Fatalf("send hook fired on %v, want %v", sent, wantSent)
		}
	}
	if len(recvd) != len(wantRecvd) {
		t.Fatalf("recv hook fired on %v, want %v", recvd, wantRecvd)
	}
	for i := range wantRecvd {
		if recvd[i] != wantRecvd[i] {
			t.Fatalf("recv hook fired on %v, want %v", recvd, wantRecvd)
		}
	}

	// Detaching (both nil) stops the stamping.
	mb.SetStageClock(nil, nil)
	if err := mb.Send(linear.New(3)); err != nil {
		t.Fatal(err)
	}
	got3, err := mb.recv(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got3.Into(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 3 || len(recvd) != 2 {
		t.Fatalf("hooks fired after detach: sent=%v recvd=%v", sent, recvd)
	}
}
