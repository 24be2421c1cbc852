package linear

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentMoveExactlyOneWins is the linear-move guarantee under
// contention: when many goroutines race to Move the same handle, exactly
// one acquires ownership and every other attempt fails with ErrMoved.
// This is the property that makes handing batches between pipeline
// workers safe, and under -race it also proves the cell's internal state
// machine is properly synchronized.
func TestConcurrentMoveExactlyOneWins(t *testing.T) {
	for round := 0; round < 100; round++ {
		o := New(round)
		const contenders = 8
		var wins, losses atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < contenders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := o.Move(); err == nil {
					wins.Add(1)
				} else if errors.Is(err, ErrMoved) {
					losses.Add(1)
				} else {
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
		wg.Wait()
		if wins.Load() != 1 || losses.Load() != contenders-1 {
			t.Fatalf("round %d: %d wins, %d losses; want exactly 1 winner", round, wins.Load(), losses.Load())
		}
	}
}

// TestConcurrentMoveChainUnderRace hands a value down a chain of
// goroutines by move, with every hop racing a stale-handle access. The
// stale accesses must all be rejected; the chain must deliver the value
// intact.
func TestConcurrentMoveChainUnderRace(t *testing.T) {
	type payload struct{ n int }
	o := New(&payload{})
	const hops = 64
	var staleErrs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < hops; i++ {
		next, _ := o.Move()
		stale := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The previous handle is dead; any use must fail, and must
			// never observe or mutate the payload.
			if err := stale.With(func(*payload) {
				t.Error("stale handle granted access")
			}); err != nil {
				staleErrs.Add(1)
			}
		}()
		if err := next.With(func(p *payload) { p.n++ }); err != nil {
			t.Fatal(err)
		}
		o = next
	}
	wg.Wait()
	if staleErrs.Load() != hops {
		t.Fatalf("stale accesses rejected: %d of %d", staleErrs.Load(), hops)
	}
	v, err := o.Into()
	if err != nil {
		t.Fatal(err)
	}
	if v.n != hops {
		t.Fatalf("payload mutated %d times, want %d", v.n, hops)
	}
}

// TestConcurrentBorrowersAndMover races shared borrows against a mover:
// the move may only succeed when no borrow is outstanding, and a borrow
// may never observe the value after a successful move invalidated its
// handle's generation.
func TestConcurrentBorrowersAndMover(t *testing.T) {
	for round := 0; round < 200; round++ {
		o := New(round)
		var wg sync.WaitGroup
		var moved atomic.Bool
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ref, err := o.Borrow()
				if err != nil {
					return // lost the race to the mover
				}
				_ = ref.Value()
				if err := ref.Release(); err != nil {
					t.Errorf("release: %v", err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := o.Move(); err == nil {
				moved.Store(true)
			} else if !errors.Is(err, ErrBorrowed) && !errors.Is(err, ErrMoved) {
				t.Errorf("unexpected move error: %v", err)
			}
		}()
		wg.Wait()
		// Whatever interleaving happened, the cell must be in a coherent
		// terminal state: either moved (old handle dead) or still live.
		if moved.Load() && o.Valid() {
			t.Fatal("handle valid after a successful move")
		}
	}
}

// TestConcurrentIntoSingleConsumer: racing Into calls from handle copies
// must yield the value exactly once.
func TestConcurrentIntoSingleConsumer(t *testing.T) {
	for round := 0; round < 100; round++ {
		o := New("payload")
		var got atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, err := o.Into(); err == nil {
					if v != "payload" {
						t.Errorf("consumed corrupt value %q", v)
					}
					got.Add(1)
				}
			}()
		}
		wg.Wait()
		if got.Load() != 1 {
			t.Fatalf("value consumed %d times", got.Load())
		}
	}
}

// TestRenewUnderContention is the mailbox's cell recycling under
// contention: Renew refuses a live value and a stale handle, and when
// copies of the consuming handle race to revive the cell, exactly one
// wins and the rest find its generation gone.
func TestRenewUnderContention(t *testing.T) {
	o := New(0)
	if _, err := o.Renew(1); !errors.Is(err, ErrLive) {
		t.Fatalf("Renew of a live value: err = %v, want ErrLive", err)
	}
	for round := 1; round <= 100; round++ {
		if _, err := o.Into(); err != nil {
			t.Fatal(err)
		}
		const contenders = 8
		renewed := make(chan Owned[int], contenders)
		var losses atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < contenders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n, err := o.Renew(round); err == nil {
					renewed <- n
				} else if errors.Is(err, ErrMoved) {
					losses.Add(1)
				} else {
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
		wg.Wait()
		close(renewed)
		if len(renewed) != 1 || losses.Load() != contenders-1 {
			t.Fatalf("round %d: %d renewed, %d refused; want exactly 1", round, len(renewed), losses.Load())
		}
		stale := o
		o = <-renewed
		if err := stale.With(func(int) { t.Error("stale handle granted access") }); !errors.Is(err, ErrMoved) {
			t.Fatalf("stale handle after Renew: err = %v, want ErrMoved", err)
		}
		if err := o.With(func(v int) {
			if v != round {
				t.Errorf("renewed value = %d, want %d", v, round)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}
