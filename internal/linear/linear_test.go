package linear

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewAndBorrow(t *testing.T) {
	o := New(42)
	r, err := o.Borrow()
	if err != nil {
		t.Fatalf("Borrow: %v", err)
	}
	if got := r.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if err := r.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

func TestMoveInvalidatesOldHandle(t *testing.T) {
	// This is the paper's take(v1) example: after the move, the original
	// binding is consumed and any use is an error.
	v1 := New([]int{1, 2, 3})
	v2, err := v1.Move()
	if err != nil {
		t.Fatalf("Move: %v", err)
	}
	if _, err := v1.Borrow(); !errors.Is(err, ErrMoved) {
		t.Fatalf("Borrow after move: err = %v, want ErrMoved", err)
	}
	if _, err := v1.Move(); !errors.Is(err, ErrMoved) {
		t.Fatalf("Move after move: err = %v, want ErrMoved", err)
	}
	if err := v1.Drop(); !errors.Is(err, ErrMoved) {
		t.Fatalf("Drop after move: err = %v, want ErrMoved", err)
	}
	// The new handle is fully usable.
	if err := v2.With(func(s []int) {
		if len(s) != 3 {
			t.Errorf("len = %d, want 3", len(s))
		}
	}); err != nil {
		t.Fatalf("With on moved-to handle: %v", err)
	}
}

func TestBorrowPreservesBinding(t *testing.T) {
	// The paper's borrow(&v2) example: borrowing does not consume.
	v2 := New([]int{1, 2, 3})
	r, _ := v2.Borrow()
	_ = r.Value()
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	// Still usable afterwards.
	if !v2.Valid() {
		t.Fatal("binding consumed by borrow")
	}
	if _, err := v2.Move(); err != nil {
		t.Fatalf("Move after released borrow: %v", err)
	}
}

func TestSharedBorrowsCoexist(t *testing.T) {
	o := New("x")
	a, _ := o.Borrow()
	b, _ := o.Borrow()
	if a.Value() != "x" || b.Value() != "x" {
		t.Fatal("shared borrows see different values")
	}
	if _, err := o.Move(); !errors.Is(err, ErrBorrowed) {
		t.Fatalf("Move with readers: err = %v, want ErrBorrowed", err)
	}
	_ = a.Release()
	if err := o.With(func(s string) {
		if s != "x" {
			t.Errorf("value = %q, want x", s)
		}
	}); err != nil {
		t.Fatalf("With beside one reader: %v", err)
	}
	if _, err := o.Into(); !errors.Is(err, ErrBorrowed) {
		t.Fatalf("Into with one reader left: err = %v", err)
	}
	_ = b.Release()
	if v, err := o.Into(); err != nil || v != "x" {
		t.Fatalf("Into after releases = (%q, %v)", v, err)
	}
}

func TestMoveWhileBorrowedFails(t *testing.T) {
	o := New(7)
	r, _ := o.Borrow()
	if _, err := o.Move(); !errors.Is(err, ErrBorrowed) {
		t.Fatalf("Move while borrowed: err = %v, want ErrBorrowed", err)
	}
	if err := o.Drop(); !errors.Is(err, ErrBorrowed) {
		t.Fatalf("Drop while borrowed: err = %v, want ErrBorrowed", err)
	}
	if _, err := o.Into(); !errors.Is(err, ErrBorrowed) {
		t.Fatalf("Into while borrowed: err = %v, want ErrBorrowed", err)
	}
	_ = r.Release()
	if _, err := o.Move(); err != nil {
		t.Fatalf("Move after release: %v", err)
	}
}

func TestDoubleRelease(t *testing.T) {
	o := New(1)
	r, _ := o.Borrow()
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("double Release: err = %v, want ErrReleased", err)
	}
	if _, err := o.Move(); err != nil {
		t.Fatalf("Move after a double Release: %v (reader count went negative or stuck)", err)
	}
}

func TestIntoConsumes(t *testing.T) {
	o := New(99)
	v, err := o.Into()
	if err != nil || v != 99 {
		t.Fatalf("Into = (%d, %v), want (99, nil)", v, err)
	}
	if _, err := o.Into(); !errors.Is(err, ErrMoved) {
		t.Fatalf("second Into: err = %v, want ErrMoved", err)
	}
	if o.Valid() {
		t.Fatal("handle valid after Into")
	}
}

func TestDropThenUse(t *testing.T) {
	o := New(1)
	if err := o.Drop(); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Borrow(); !errors.Is(err, ErrDropped) {
		t.Fatalf("Borrow after Drop: err = %v, want ErrDropped", err)
	}
	if err := o.Drop(); !errors.Is(err, ErrDropped) {
		t.Fatalf("double Drop: err = %v, want ErrDropped", err)
	}
}

func TestZeroOwnedIsInvalid(t *testing.T) {
	var o Owned[int]
	if o.Valid() {
		t.Fatal("zero Owned reports valid")
	}
	if _, err := o.Borrow(); !errors.Is(err, ErrDropped) {
		t.Fatalf("Borrow on zero: %v", err)
	}
	if _, err := o.Move(); !errors.Is(err, ErrDropped) {
		t.Fatalf("Move on zero: %v", err)
	}
}

func TestViolationErrorFormatting(t *testing.T) {
	o := New(1)
	_, _ = o.Move()
	_, err := o.Borrow()
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *ViolationError", err)
	}
	if v.Op != "Owned.Borrow" {
		t.Fatalf("Op = %q", v.Op)
	}
	if v.Error() == "" || !errors.Is(v, ErrMoved) {
		t.Fatalf("bad wrapping: %v", v)
	}
}

func TestStringStates(t *testing.T) {
	o := New(5)
	if s := o.String(); s != "Owned(5)" {
		t.Fatalf("String = %q", s)
	}
	n, _ := o.Move()
	if s := o.String(); s != "Owned(<moved>)" {
		t.Fatalf("String after move = %q", s)
	}
	_ = n.Drop()
	if s := n.String(); s != "Owned(<dropped>)" {
		t.Fatalf("String after drop = %q", s)
	}
	var z Owned[int]
	if s := z.String(); s != "Owned(<nil>)" {
		t.Fatalf("zero String = %q", s)
	}
}

// Property: a chain of n moves leaves exactly the final handle live and
// every earlier handle dead, and the value is preserved.
func TestQuickMoveChain(t *testing.T) {
	f := func(v int64, hops uint8) bool {
		n := int(hops%16) + 1
		handles := make([]Owned[int64], 0, n+1)
		o := New(v)
		handles = append(handles, o)
		for i := 0; i < n; i++ {
			next, err := handles[len(handles)-1].Move()
			if err != nil {
				return false
			}
			handles = append(handles, next)
		}
		for i := 0; i < len(handles)-1; i++ {
			if handles[i].Valid() {
				return false
			}
		}
		last := handles[len(handles)-1]
		got, err := last.Into()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: borrow/release sequences never corrupt the reader count —
// after releasing every borrow, a move always succeeds.
func TestQuickBorrowBalance(t *testing.T) {
	f := func(ops []bool) bool {
		o := New(0)
		var open []*Ref[int]
		for _, borrow := range ops {
			if borrow || len(open) == 0 {
				r, err := o.Borrow()
				if err != nil {
					return false
				}
				open = append(open, r)
			} else {
				r := open[len(open)-1]
				open = open[:len(open)-1]
				if err := r.Release(); err != nil {
					return false
				}
			}
		}
		for _, r := range open {
			if err := r.Release(); err != nil {
				return false
			}
		}
		_, err := o.Move()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Under concurrency, exactly one of N racing movers wins; every loser gets
// ErrMoved or ErrBorrowed, never a second success.
func TestConcurrentMoveRace(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		o := New(trial)
		const racers = 8
		var mu sync.Mutex
		wins := 0
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := o.Move(); err == nil {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("trial %d: %d winners, want 1", trial, wins)
		}
	}
}

func TestConcurrentBorrowers(t *testing.T) {
	o := New(123)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := o.Borrow()
			if err != nil {
				errs <- err
				return
			}
			if r.Value() != 123 {
				errs <- errors.New("bad value")
			}
			errs <- r.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Move(); err != nil {
		t.Fatalf("Move after concurrent borrows: %v", err)
	}
}
