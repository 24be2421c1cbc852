// Package linear provides a runtime-enforced linear (affine) ownership
// model for Go values.
//
// The paper's mechanisms rest on Rust's compile-time guarantee that every
// live object has a unique owner: passing a value moves it, borrows are
// scoped and either shared-immutable or exclusive-mutable, and aliasing is
// only possible through an explicit reference-counted wrapper (Rc).
//
// Go has no linear types, so this package enforces the same discipline
// dynamically: every Owned[T] handle carries a generation stamp, moves
// invalidate the previous handle, and shared borrows are tracked with a
// reader count. A violation that the Rust compiler would reject at
// compile time (use-after-move, move- or drop-while-borrowed) surfaces
// here as a well-typed error.
//
// The cost of this dynamic enforcement relative to a bare pointer is
// measured by the BenchmarkAblationOwned* benches; the SFI and
// checkpointing layers in this repository rely only on the invariants this
// package maintains, exactly as the paper's mechanisms rely on rustc.
package linear

import (
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors reported for ownership-discipline violations. These are
// the dynamic analogues of rustc error codes (E0382 use of moved value,
// E0502 conflicting borrows, and so on).
var (
	// ErrMoved reports a use of a handle whose value was moved away.
	ErrMoved = errors.New("linear: use of moved value")
	// ErrDropped reports a use of a handle whose value was dropped.
	ErrDropped = errors.New("linear: use of dropped value")
	// ErrBorrowed reports a move, consume, drop or renew attempted while
	// borrows are outstanding.
	ErrBorrowed = errors.New("linear: value is borrowed")
	// ErrReleased reports a double release of a borrow guard.
	ErrReleased = errors.New("linear: borrow already released")
	// ErrLive reports a Renew of a cell that still holds a live value;
	// the value must be consumed (Into) or dropped first.
	ErrLive = errors.New("linear: cell still holds a live value")
)

// ViolationError wraps a sentinel error with the operation that failed.
// Use errors.Is to match the underlying sentinel.
type ViolationError struct {
	Op  string // the operation attempted, e.g. "Owned.Move"
	Err error  // one of the sentinel errors above
}

func (e *ViolationError) Error() string { return e.Op + ": " + e.Err.Error() }

// Unwrap returns the sentinel cause.
func (e *ViolationError) Unwrap() error { return e.Err }

func violation(op string, err error) error { return &ViolationError{Op: op, Err: err} }

// cellState describes the lifecycle of the value inside a cell.
type cellState uint8

const (
	stateLive cellState = iota
	stateMoved
	stateDropped
)

func (s cellState) err() error {
	switch s {
	case stateMoved:
		return ErrMoved
	case stateDropped:
		return ErrDropped
	default:
		return nil
	}
}

// cell is the shared storage behind an Owned handle. The mutex keeps the
// state machine consistent across goroutines; the fast path is a single
// uncontended lock/unlock.
type cell[T any] struct {
	mu      sync.Mutex
	val     T
	state   cellState
	gen     uint64 // current handle generation; stale handles are "moved"
	readers int    // outstanding shared borrows
}

// Owned is a linearly owned value of type T. The zero Owned is invalid;
// construct one with New. Owned handles are small and may be copied, but
// only the handle produced by the most recent New or Move is live — uses
// of earlier copies fail with ErrMoved, which is how this package detects
// the aliasing bugs that rustc rejects statically.
type Owned[T any] struct {
	c   *cell[T]
	gen uint64
}

// New creates a linearly owned value.
func New[T any](v T) Owned[T] {
	return Owned[T]{c: &cell[T]{val: v, state: stateLive, gen: 1}, gen: 1}
}

// check validates the handle against the cell under c.mu.
func (o Owned[T]) check(op string) error {
	if o.c == nil {
		return violation(op, ErrDropped)
	}
	if o.gen != o.c.gen {
		return violation(op, ErrMoved)
	}
	if err := o.c.state.err(); err != nil {
		return violation(op, err)
	}
	return nil
}

// Move transfers ownership to a fresh handle and invalidates the receiver
// (and every copy of it). This models passing a value by move in Rust:
// the sender retains no access. Move fails while borrows are outstanding.
func (o Owned[T]) Move() (Owned[T], error) {
	const op = "Owned.Move"
	if o.c == nil {
		return Owned[T]{}, violation(op, ErrDropped)
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if err := o.check(op); err != nil {
		return Owned[T]{}, err
	}
	if o.c.readers > 0 {
		return Owned[T]{}, violation(op, ErrBorrowed)
	}
	o.c.gen++
	return Owned[T]{c: o.c, gen: o.c.gen}, nil
}

// Into consumes the value and returns it, ending the linear regime for it.
// It is the analogue of moving out of the wrapper (Rust's into_inner).
func (o Owned[T]) Into() (T, error) {
	const op = "Owned.Into"
	var zero T
	if o.c == nil {
		return zero, violation(op, ErrDropped)
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if err := o.check(op); err != nil {
		return zero, err
	}
	if o.c.readers > 0 {
		return zero, violation(op, ErrBorrowed)
	}
	o.c.state = stateMoved
	v := o.c.val
	var z T
	o.c.val = z
	return v, nil
}

// Drop destroys the value. In Rust this runs when the binding leaves
// scope; here it is explicit. Dropping while borrowed is a violation.
func (o Owned[T]) Drop() error {
	const op = "Owned.Drop"
	if o.c == nil {
		return violation(op, ErrDropped)
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if err := o.check(op); err != nil {
		return err
	}
	if o.c.readers > 0 {
		return violation(op, ErrBorrowed)
	}
	o.c.state = stateDropped
	var z T
	o.c.val = z
	return nil
}

// Valid reports whether the handle is currently live (not moved, not
// dropped). It never mutates state.
func (o Owned[T]) Valid() bool {
	if o.c == nil {
		return false
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	return o.gen == o.c.gen && o.c.state == stateLive
}

// Borrow takes a shared (immutable) borrow. Multiple shared borrows may
// coexist. The returned Ref must be Released; failing to release blocks
// subsequent moves, mirroring how a borrow outliving its scope is
// rejected by rustc.
func (o Owned[T]) Borrow() (*Ref[T], error) {
	const op = "Owned.Borrow"
	if o.c == nil {
		return nil, violation(op, ErrDropped)
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if err := o.check(op); err != nil {
		return nil, err
	}
	o.c.readers++
	return &Ref[T]{c: o.c}, nil
}

// With runs fn with a shared borrow of the value, releasing it afterwards.
// Unlike Borrow, no guard object is handed out, so the borrow bookkeeping
// stays on the stack — this is the per-packet path through the mailbox and
// pipeline stages, and it must not allocate.
func (o Owned[T]) With(fn func(T)) error {
	const op = "Owned.With"
	c := o.c
	if c == nil {
		return violation(op, ErrDropped)
	}
	c.mu.Lock()
	if err := o.check(op); err != nil {
		c.mu.Unlock()
		return err
	}
	c.readers++
	v := c.val
	c.mu.Unlock()
	defer releaseShared(c)
	fn(v)
	return nil
}

// releaseShared ends an inline shared borrow taken by With. Kept as a
// named function so the deferred call does not capture a closure.
func releaseShared[T any](c *cell[T]) {
	c.mu.Lock()
	c.readers--
	c.mu.Unlock()
}

// Renew revives a consumed cell with a fresh value and returns a new live
// handle, reusing the allocation. Only the handle that consumed the value
// (via Into) may renew it, and the generation bump invalidates every older
// copy — so recycling a mailbox cell across batches keeps the full
// use-after-move detection while costing zero allocations per message.
func (o Owned[T]) Renew(v T) (Owned[T], error) {
	const op = "Owned.Renew"
	if o.c == nil {
		return Owned[T]{}, violation(op, ErrDropped)
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if o.gen != o.c.gen {
		return Owned[T]{}, violation(op, ErrMoved)
	}
	switch o.c.state {
	case stateLive:
		return Owned[T]{}, violation(op, ErrLive)
	case stateDropped:
		return Owned[T]{}, violation(op, ErrDropped)
	}
	if o.c.readers > 0 {
		return Owned[T]{}, violation(op, ErrBorrowed)
	}
	o.c.gen++
	o.c.val = v
	o.c.state = stateLive
	return Owned[T]{c: o.c, gen: o.c.gen}, nil
}

// String implements fmt.Stringer for diagnostics without borrowing.
func (o Owned[T]) String() string {
	if o.c == nil {
		return "Owned(<nil>)"
	}
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	if o.gen != o.c.gen {
		return "Owned(<moved>)"
	}
	switch o.c.state {
	case stateMoved:
		return "Owned(<moved>)"
	case stateDropped:
		return "Owned(<dropped>)"
	}
	return fmt.Sprintf("Owned(%v)", o.c.val)
}

// Ref is a shared borrow of an Owned value.
type Ref[T any] struct {
	c        *cell[T]
	released bool
	mu       sync.Mutex
}

// Value returns the borrowed value. The caller must not retain interior
// pointers past Release; this is the single honor-system point of the
// dynamic model (rustc enforces it with lifetimes).
func (r *Ref[T]) Value() T {
	return r.c.val
}

// Release ends the borrow. Releasing twice is a violation.
func (r *Ref[T]) Release() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		return violation("Ref.Release", ErrReleased)
	}
	r.released = true
	r.c.mu.Lock()
	r.c.readers--
	r.c.mu.Unlock()
	return nil
}
