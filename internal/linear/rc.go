package linear

import (
	"sync"
	"sync/atomic"
)

// This file is the explicit-aliasing escape hatch of the ownership model,
// and the only shared-pointer type in the repository: a reference-counted
// shared value (the paper's Rc) with weak handles (std::rc::Weak). The
// paper builds both of its mechanisms on this one type, and so does this
// tree: the SFI reference tables (§3) hold the strong handle and give
// clients a Weak, and the checkpointing library (§5) "sets a flag inside
// Rc" on first visit — CheckpointVisit, below. One box therefore carries
// a strong count, a weak count and the first-visit flag (Marshall &
// Orchard's fractional-uniqueness reading: the table, the borrower and
// the traversal each hold a fraction of the same cell).
//
// The counts are atomic — Go cannot statically confine a value to one
// goroutine the way Rust confines non-Send types to one thread — so
// Clone, Drop, Downgrade and Weak.Upgrade never take a lock. The value
// and the flag sit behind the box mutex: Get, Set and CheckpointVisit
// lock it, Peek does not (see Peek for who may call it).

// rcBox is the shared allocation behind Rc and Weak handles.
type rcBox[T any] struct {
	strong atomic.Int64
	weak   atomic.Int64 // weak handles + 1 implicit ref held by strong>0

	mu  sync.Mutex // guards val, epoch and cp
	val T
	// The §5 flag: the epoch of the last checkpoint that visited this
	// box and the copy that visit made.
	epoch uint64
	cp    *rcBox[T]
}

func newBox[T any]() *rcBox[T] {
	b := &rcBox[T]{}
	b.strong.Store(1)
	b.weak.Store(1)
	return b
}

// Rc is a reference-counted shared value. Aliasing through Rc is the
// only sanctioned aliasing in the model, and — crucially for §5 — it is
// visible in the type signature of any structure containing it. Handles
// are comparable: two are equal exactly when they share a box.
type Rc[T any] struct {
	box *rcBox[T]
}

// NewRc allocates a new shared value with strong count 1.
func NewRc[T any](v T) Rc[T] {
	b := newBox[T]()
	b.val = v
	return Rc[T]{box: b}
}

// Clone creates an additional strong handle to the same value.
func (r Rc[T]) Clone() Rc[T] {
	if r.box == nil {
		panic("linear: Clone of zero Rc")
	}
	if r.box.strong.Add(1) <= 1 {
		panic("linear: Clone of dead Rc")
	}
	return r
}

// CloneAny is Clone for a caller that cannot name T: the checkpoint
// engine's visited-set arm, handing a later alias the copy it registered.
// An Rc is one pointer, so the interface conversion does not allocate.
func (r Rc[T]) CloneAny() any { return r.Clone() }

// Get returns a copy of the shared value, taken under the box lock.
func (r Rc[T]) Get() T {
	if r.box == nil {
		panic("linear: Get on zero Rc")
	}
	r.box.mu.Lock()
	defer r.box.mu.Unlock()
	return r.box.val
}

// Set replaces the shared value (visible through every alias — exactly
// the behaviour that defeats naive traversal and security-type systems,
// and that the epoch flag handles for free).
func (r Rc[T]) Set(v T) {
	if r.box == nil {
		panic("linear: Set on zero Rc")
	}
	r.box.mu.Lock()
	r.box.val = v
	r.box.mu.Unlock()
}

// Peek returns a pointer to the shared value without locking or copying
// it: the read path for per-packet code (Get copies T, and the copy
// heap-escapes when the caller returns a pointer into it) and for the
// SFI crossing. The caller must hold a strong handle for as long as it
// uses the pointer (the value is cleared at the last Drop, never before),
// must treat the target as read-only, and must not race it with Set;
// values that change after publication stay on Get/Set.
func (r Rc[T]) Peek() *T {
	if r.box == nil {
		panic("linear: Peek on zero Rc")
	}
	return &r.box.val
}

// IsZero reports whether the handle is the zero Rc.
func (r Rc[T]) IsZero() bool { return r.box == nil }

// StrongCount reports the current number of strong handles.
func (r Rc[T]) StrongCount() int64 {
	if r.box == nil {
		return 0
	}
	return r.box.strong.Load()
}

// WeakCount reports the current number of weak handles.
func (r Rc[T]) WeakCount() int64 {
	if r.box == nil {
		return 0
	}
	return max(r.box.weak.Load()-1, 0)
}

// Drop releases one strong handle. When the last strong handle is
// dropped the value is cleared (with whatever checkpoint copy the box
// still pointed at); outstanding weak handles can no longer upgrade.
// Dropping a zero or already-dead handle is a violation.
func (r Rc[T]) Drop() error {
	const op = "Rc.Drop"
	if r.box == nil {
		return violation(op, ErrDropped)
	}
	for {
		n := r.box.strong.Load()
		if n <= 0 {
			return violation(op, ErrDropped)
		}
		if r.box.strong.CompareAndSwap(n, n-1) {
			if n == 1 {
				// Last strong ref: clear the value (destructor) and
				// release the implicit weak ref held by the strong set.
				var z T
				r.box.mu.Lock()
				r.box.val, r.box.epoch, r.box.cp = z, 0, nil
				r.box.mu.Unlock()
				r.box.weak.Add(-1)
			}
			return nil
		}
	}
}

// DropN releases n strong handles at once: the copies a holder discards
// wholesale, as session.Table.Restore does with every flow's clone of a
// backend box. It never releases the last handle (Drop does, running the
// destructor), so n must leave at least one; otherwise, and on a zero or
// dead handle, it releases nothing and reports a violation.
func (r Rc[T]) DropN(n int64) error {
	const op = "Rc.DropN"
	if r.box == nil || n < 0 {
		return violation(op, ErrDropped)
	}
	for {
		c := r.box.strong.Load()
		if c-n < 1 {
			return violation(op, ErrDropped)
		}
		if r.box.strong.CompareAndSwap(c, c-n) {
			return nil
		}
	}
}

// Alive reports whether the value is still strongly referenced.
func (r Rc[T]) Alive() bool {
	return r.box != nil && r.box.strong.Load() > 0
}

// Downgrade creates a weak handle that does not keep the value alive.
func (r Rc[T]) Downgrade() Weak[T] {
	if r.box == nil {
		panic("linear: Downgrade of zero Rc")
	}
	r.box.weak.Add(1)
	return Weak[T]{box: r.box}
}

// SameBox reports whether two handles alias the same allocation.
func (r Rc[T]) SameBox(o Rc[T]) bool { return r.box == o.box }

// CheckpointVisit is the paper's hand-written Checkpointable impl for
// Rc (§5): it copies the shared value at most once per checkpoint by
// keeping the "already checkpointed" flag inside the box. Its signature
// names neither T nor reflect, so internal/checkpoint reaches it through
// an interface assertion on any Rc[T]; nothing else should call it.
//
// clone deep-copies one value of type T. The result is an Rc[T] in an
// interface: a strong handle to the copy's box, which shares nothing
// with the receiver's.
//
// epoch != 0 is the paper's design. The first visit of a box in an epoch
// allocates the copy's box and records (epoch, copy) in the original
// *before* cloning, so a cycle back to this box finds the copy in
// progress instead of recursing; it reports first = true. Every later
// visit in that epoch, through any alias, takes one more strong handle
// to the same copy. Epochs must be unique per traversal.
//
// epoch == 0 leaves the flag alone and always makes a fresh copy (first =
// true): the form the engine's comparison arms use. pre, if non-nil, is
// handed the receiver and the new handle before clone runs, so a caller
// that keeps its own address table can register the copy early for the
// same cycle argument. The zero Rc has no box to visit; callers check
// IsZero first.
func (r Rc[T]) CheckpointVisit(epoch uint64, clone func(any) (any, error), pre func(orig, cp any)) (cp any, first bool, err error) {
	b := r.box
	b.mu.Lock()
	if epoch != 0 && b.epoch == epoch && b.cp != nil {
		nb := b.cp
		b.mu.Unlock()
		nb.strong.Add(1)
		return Rc[T]{box: nb}, false, nil
	}
	nb := newBox[T]()
	if epoch != 0 {
		b.epoch, b.cp = epoch, nb
	}
	val := b.val
	b.mu.Unlock()
	if pre != nil {
		pre(r, Rc[T]{box: nb})
	}
	cv, err := clone(val)
	if err != nil {
		return nil, true, err
	}
	if cv != nil { // a nil interface value clones to nil: the zero T
		nb.mu.Lock()
		nb.val = cv.(T)
		nb.mu.Unlock()
	}
	return Rc[T]{box: nb}, true, nil
}

// Weak is a non-owning handle to an Rc allocation: it observes the
// value without keeping it alive and must be upgraded before use. The SFI
// reference tables hand exactly these to client domains so that revoking
// an entry makes all outstanding remote references fail closed.
type Weak[T any] struct {
	box *rcBox[T]
}

// Upgrade attempts to obtain a strong handle. It fails (ok=false) if the
// last strong handle has been dropped — e.g. the domain revoked the
// reference or was torn down for recovery.
func (w Weak[T]) Upgrade() (Rc[T], bool) {
	if w.box == nil {
		return Rc[T]{}, false
	}
	for {
		n := w.box.strong.Load()
		if n <= 0 {
			return Rc[T]{}, false
		}
		if w.box.strong.CompareAndSwap(n, n+1) {
			return Rc[T]{box: w.box}, true
		}
	}
}

// Alive reports whether an upgrade would currently succeed.
func (w Weak[T]) Alive() bool {
	return w.box != nil && w.box.strong.Load() > 0
}

// Drop releases the weak handle. Safe to call once per handle.
func (w Weak[T]) Drop() {
	if w.box != nil {
		w.box.weak.Add(-1)
	}
}
