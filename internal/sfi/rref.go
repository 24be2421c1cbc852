package sfi

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/linear"
)

// RRef is a remote reference to an object of type T living inside another
// protection domain. Per Figure 1, the object itself stays in its owner's
// reference table (held by a strong Rc proxy); the RRef carries only a
// weak pointer plus the (domain, slot) coordinates needed to re-bind after
// the owner recovers from a fault.
//
// RRef values may be freely copied and shared between client domains —
// they confer no direct access; every use goes through Call/CallMove,
// which upgrade the weak pointer, apply the owner's policy, and execute
// the method inside the owner's fault boundary.
type RRef[T any] struct {
	dom  *Domain
	slot uint64
	// bind holds the current weak binding. It is replaced wholesale (via
	// CAS) when the slow path re-binds after recovery, so concurrent
	// fast-path readers in other workers always see a consistent
	// (weak, intercepted) pair.
	bind atomic.Pointer[rrefBinding[T]]
}

// rrefBinding is the immutable snapshot an RRef points at.
type rrefBinding[T any] struct {
	weak        linear.Weak[T]
	intercepted bool // entry has a per-object interceptor installed
	// gen is the owner domain's teardown generation when this binding was
	// minted. A successful weak upgrade alone does not prove the entry is
	// still installed: an in-flight invocation holds a strong handle for
	// its whole duration, and if the domain faults meanwhile, that handle
	// keeps the revoked proxy alive. Comparing generations catches this —
	// a stale binding is refused even though its proxy is upgradable.
	gen uint64
}

// Export places obj into d's reference table and returns the RRef clients
// use to reach it. The object's ownership transfers into the domain: the
// table's strong Rc is the sole root.
func Export[T any](d *Domain, obj T) (*RRef[T], error) {
	return export(d, obj, nil)
}

// ExportIntercepted is Export with a per-entry interceptor for
// fine-grained access control on this object's methods.
func ExportIntercepted[T any](d *Domain, obj T, ic Interceptor) (*RRef[T], error) {
	return export(d, obj, ic)
}

// ExportAt places obj at a specific table slot. Recovery functions use it
// to re-populate the slots that outstanding RRefs were minted for, making
// the fault transparent to clients (§3): those RRefs re-bind on their
// next call, so ExportAt mints none. Exporting over a live entry revokes
// it first.
func ExportAt[T any](d *Domain, slot uint64, obj T) error {
	if !d.Live() {
		return d.exportErr()
	}
	d.install(slot, true, &tableEntry{handle: linear.NewRc(obj), typ: reflect.TypeOf(obj)})
	return nil
}

// export installs obj in the next free slot and mints the RRef for it.
func export[T any](d *Domain, obj T, ic Interceptor) (*RRef[T], error) {
	if !d.Live() {
		return nil, d.exportErr()
	}
	rc := linear.NewRc(obj)
	slot := d.install(0, false, &tableEntry{handle: rc, interceptor: ic, typ: reflect.TypeOf(obj)})
	rref := &RRef[T]{dom: d, slot: slot}
	rref.bind.Store(&rrefBinding[T]{weak: rc.Downgrade(), intercepted: ic != nil, gen: d.gen.Load()})
	return rref, nil
}

// exportErr is the error for an export into a domain that is not live.
func (d *Domain) exportErr() error {
	return fmt.Errorf("export into domain %d (%s): %w", d.id, d.name, stateErr(domainState(d.state.Load())))
}

// install puts e at slot (the next free one unless explicit) and returns
// the slot.
func (d *Domain) install(slot uint64, explicit bool, e *tableEntry) uint64 {
	d.mu.Lock()
	if !explicit {
		d.nextSlot++
		slot = d.nextSlot
	}
	prev := d.table[slot]
	d.table[slot] = e
	if slot > d.nextSlot {
		d.nextSlot = slot
	}
	d.mu.Unlock()
	if prev != nil {
		// Replacing a live entry revokes it: bump the generation so
		// bindings to the replaced proxy are refused from now on.
		d.gen.Add(1)
		prev.revoke()
		d.Stats.Revocations.Add(1)
	}
	d.Stats.Exports.Add(1)
	return slot
}

// Slot returns the reference-table slot this RRef is bound to.
func (r *RRef[T]) Slot() uint64 { return r.slot }

// Domain returns the owning domain.
func (r *RRef[T]) Domain() *Domain { return r.dom }

// Alive reports whether an invocation would currently find the object
// (without performing one).
func (r *RRef[T]) Alive() bool {
	if r.bind.Load().weak.Alive() {
		return true
	}
	return r.dom.Live() && r.dom.lookup(r.slot) != nil
}

// acquire upgrades the weak pointer, re-binding through the table if the
// proxy was replaced by recovery. It returns the strong handle (which the
// caller must Drop) and the entry's interceptor.
//
// The fast path is a weak upgrade plus one generation compare, with no
// table lock. The upgrade alone is not proof the entry is still
// installed: normally the table's strong Rc is the proxy's only strong
// root (both revocation and fault teardown drop it first), but an
// invocation in flight at teardown time holds a second strong handle for
// its whole duration — long enough, for a stalled call, for the domain
// to be torn down, recovered, and serving again. The generation check
// refuses such stale bindings, so new calls fail closed (or re-bind to
// the recovered entry) instead of reaching the torn-down object.
// Interceptors are fetched from the table only when one was installed at
// export time (recorded in the rref), keeping the common no-interceptor
// call lock-free.
func (r *RRef[T]) acquire() (linear.Rc[T], Interceptor, error) {
	old := r.bind.Load()
	if rc, ok := old.weak.Upgrade(); ok {
		if old.gen == r.dom.gen.Load() {
			var ic Interceptor
			if old.intercepted {
				if e := r.dom.lookup(r.slot); e != nil {
					ic = e.interceptor
				}
			}
			return rc, ic, nil
		}
		// Stale binding pinned alive by an in-flight call; fall through.
		r.dom.Stats.Stale.Add(1)
		_ = rc.Drop()
	}
	// Slow path: the proxy died (revocation, fault, or recovery) or its
	// binding is from a previous table generation. Read the generation
	// before the table lookup so the published binding is never fresher
	// than the entry it wraps (a teardown between the two reads leaves
	// the binding conservatively stale, never wrongly current).
	g := r.dom.gen.Load()
	if st := domainState(r.dom.state.Load()); st != stateLive {
		return linear.Rc[T]{}, nil, fmt.Errorf("invoke on domain %d (%s): %w", r.dom.id, r.dom.name, stateErr(st))
	}
	e := r.dom.lookup(r.slot)
	if e == nil {
		return linear.Rc[T]{}, nil, fmt.Errorf("invoke slot %d in domain %d: %w", r.slot, r.dom.id, ErrRevoked)
	}
	// Re-bind to the entry now occupying our slot (recovery re-populated
	// it), if it has the right type.
	rc, ok := e.handle.(linear.Rc[T])
	if !ok {
		return linear.Rc[T]{}, nil, fmt.Errorf("re-bind slot %d in domain %d: have %s: %w", r.slot, r.dom.id, e.typeName(), ErrWrongType)
	}
	strong := rc.Clone()
	fresh := &rrefBinding[T]{weak: strong.Downgrade(), intercepted: e.interceptor != nil, gen: g}
	// Publish the new binding; if another worker re-bound first, keep
	// theirs and retire ours (a binding is published exactly once, so
	// the loser is the only dropper of its own weak handle).
	if r.bind.CompareAndSwap(old, fresh) {
		old.weak.Drop()
	} else {
		fresh.weak.Drop()
	}
	return strong, e.interceptor, nil
}

// Call performs a remote invocation: it upgrades the weak pointer, applies
// policy, switches the current domain for the duration, and runs method
// with a borrowed view of the object. The object remains in its domain;
// only results cross back, per the paper's semantics for borrowed
// arguments.
//
// A panic inside method is caught at this boundary: the stack unwinds to
// the domain entry point, the callee domain is failed (its reference table
// cleared), and ErrDomainFailed is returned to the caller — the caller's
// domain keeps running.
func (r *RRef[T]) Call(ctx *Context, method string, fn func(obj T) error) error {
	rc, ic, err := r.acquire()
	if err != nil {
		return err
	}
	defer func() { _ = rc.Drop() }()
	caller := ctx.Current()
	if err := r.dom.checkPolicy(caller, method, ic); err != nil {
		return err
	}
	r.dom.Stats.Calls.Add(1)
	ctx.push(r.dom.id)
	defer ctx.pop()
	// rc is a strong handle held until this call returns, so the proxy
	// cannot be cleared under it: read it without the box lock.
	return r.guard(method, func() error { return fn(*rc.Peek()) })
}

// guard is the domain entry point: it converts callee panics into
// ErrDomainFailed after tearing the domain down (§3 recovery step 1-2).
func (r *RRef[T]) guard(method string, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.dom.fail()
			err = &panicError{dom: r.dom, method: method, val: p}
		}
	}()
	return fn()
}

// panicError is a callee panic caught at a domain's entry point; it
// wraps ErrDomainFailed. Its message is built only when read, so a fault
// whose error nobody prints costs one small object.
type panicError struct {
	dom    *Domain
	method string
	val    any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("domain %d (%s) panicked in %s: %v: %v", e.dom.id, e.dom.name, e.method, e.val, ErrDomainFailed)
}

func (e *panicError) Unwrap() error { return ErrDomainFailed }

func (d *Domain) checkPolicy(caller DomainID, method string, ic Interceptor) error {
	if pp := d.policy.Load(); pp != nil {
		if err := (*pp).Allow(caller, d.id, method); err != nil {
			return fmt.Errorf("call %s from domain %d to %d: %w", method, caller, d.id, err)
		}
	}
	if ic != nil {
		if err := ic(caller, method); err != nil {
			return fmt.Errorf("call %s from domain %d to %d: %w", method, caller, d.id, err)
		}
	}
	return nil
}

// CallMove performs a remote invocation that transfers ownership of arg
// into the callee — the zero-copy send the paper builds its NetBricks
// experiment on. The caller's handle is invalidated *before* the callee
// runs, so even a malicious caller cannot observe or mutate the argument
// afterwards; the callee receives a fresh Owned handle and may return a
// (possibly different) owned value, whose ownership transfers back.
func CallMove[T, A any](ctx *Context, r *RRef[T], method string, arg linear.Owned[A], fn func(obj T, arg linear.Owned[A]) (linear.Owned[A], error)) (linear.Owned[A], error) {
	var zero linear.Owned[A]
	rc, ic, err := r.acquire()
	if err != nil {
		return zero, err
	}
	defer func() { _ = rc.Drop() }()
	caller := ctx.Current()
	if err := r.dom.checkPolicy(caller, method, ic); err != nil {
		return zero, err
	}
	moved, err := arg.Move() // sender loses access here
	if err != nil {
		return zero, fmt.Errorf("CallMove %s: argument: %w", method, err)
	}
	r.dom.Stats.Calls.Add(1)
	ctx.push(r.dom.id)
	defer ctx.pop()

	var out linear.Owned[A]
	err = r.guard(method, func() error {
		var ferr error
		out, ferr = fn(*rc.Peek(), moved) // unlocked: rc is held for the call, as in Call
		return ferr
	})
	if err != nil {
		return zero, err
	}
	// Ownership of the result transfers back to the caller.
	back, err := out.Move()
	if err != nil {
		return zero, fmt.Errorf("CallMove %s: result: %w", method, err)
	}
	return back, nil
}

// CallResult is a convenience wrapper returning a value computed against a
// borrowed view of the remote object (the Ok(ret) pattern in the paper's
// listing).
func CallResult[T, R any](ctx *Context, r *RRef[T], method string, fn func(obj T) (R, error)) (R, error) {
	var out R
	err := r.Call(ctx, method, func(obj T) error {
		var ferr error
		out, ferr = fn(obj)
		return ferr
	})
	if err != nil {
		var zero R
		return zero, err
	}
	return out, nil
}
