// Package checkpoint implements the paper's §5 contribution: automatic
// checkpointing of arbitrary pointer-linked data structures.
//
// The paper's library is a Rust trait, Checkpointable, whose
// implementation a compiler plugin derives inductively for any type built
// from scalars and references to checkpointable types, plus a hand-written
// implementation for Rc that sets an internal flag on first visit so a
// shared object is copied exactly once per checkpoint.
//
// Go has no compiler plugins, so this package derives the same behaviour
// with reflection over a type's exported structure — the moral equivalent
// of the plugin's induction over type components. The key insight carries
// over unchanged:
//
//   - plain pointers are treated as unique owners and traversed without a
//     visited set (the linear regime this repository enforces dynamically
//     via internal/linear makes that sound); and
//   - aliasing is explicit in the type: only linear.Rc values can be
//     shared, and the Rc box itself carries the per-epoch "already
//     checkpointed" state (linear.Rc.CheckpointVisit), so sharing is
//     preserved with O(1) work per alias and no global address table.
//
// Three engine modes exist so that Figure 3 and its ablation can be
// regenerated:
//
//   - RcAware   — the paper's design (flag inside Rc);
//   - Naive     — pretends Rc is a unique pointer, producing the duplicate
//     copies of Figure 3b;
//   - VisitedSet — the conventional-language workaround: record every
//     address reached and check each new object against the set, paying
//     lookup cost on every pointer, aliased or not.
package checkpoint

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/linear"
)

// Mode selects how the engine handles aliasing during traversal.
type Mode int

const (
	// RcAware preserves sharing using the per-epoch flag inside Rc.
	RcAware Mode = iota
	// Naive traverses through Rc as if it were a unique pointer,
	// duplicating shared objects (Figure 3b).
	Naive
	// VisitedSet preserves sharing with a global address table, the
	// conventional-language technique the paper contrasts against.
	VisitedSet
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case RcAware:
		return "rc-aware"
	case Naive:
		return "naive"
	case VisitedSet:
		return "visited-set"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Errors reported by the engine.
var (
	// ErrUnsupported reports a type the derivation cannot handle
	// (functions, channels, unsafe pointers).
	ErrUnsupported = errors.New("checkpoint: unsupported type")
	// ErrUnexported reports a struct with unexported fields, which the
	// reflection-based derivation cannot traverse. Such types must
	// implement Checkpointable themselves.
	ErrUnexported = errors.New("checkpoint: unexported field")
	// ErrTypeMismatch reports a Restore into an incompatible destination.
	ErrTypeMismatch = errors.New("checkpoint: type mismatch")
)

// Checkpointable lets a type provide custom checkpoint behaviour, taking
// the place of the derived traversal (the trait customization point).
// Copy must return a deep copy of the receiver of the same type, using
// clone to copy any interior state it does not own uniquely.
type Checkpointable interface {
	CheckpointCopy(clone func(v any) (any, error)) (any, error)
}

// epochCounter hands out one globally unique epoch per checkpoint run, so
// Rc flags from different runs can never be confused.
var epochCounter atomic.Uint64

// Stats counts traversal work for the Figure 3 experiment.
type Stats struct {
	Objects   int // pointer targets deep-copied
	RcFirst   int // Rc boxes copied (first visit this epoch)
	RcReused  int // Rc aliases that reused an existing copy
	SetProbes int // visited-set lookups (VisitedSet mode only)
}

// Engine performs checkpoint traversals in a fixed mode. Engines are
// stateless between runs; each Checkpoint call gets a fresh epoch.
// Checkpointing is safe to run concurrently with mutation of Rc values
// (the box mutex serializes access), but two *simultaneous* checkpoints
// over overlapping graphs race on the per-box epoch flag and may lose
// sharing; serialize whole-graph checkpoints, as the paper's library does
// implicitly by running checkpoint() on one thread.
type Engine struct {
	mode Mode
}

// NewEngine creates an engine in the given mode.
func NewEngine(mode Mode) *Engine { return &Engine{mode: mode} }

// run is the per-checkpoint traversal state.
type run struct {
	mode    Mode
	epoch   uint64
	visited map[any]reflect.Value // VisitedSet mode: pointer or Rc handle -> copied value
	stats   Stats
	// The two callbacks an Rc box is handed, bound once per run instead
	// of once per visit: cloneFn is cloneAny; register (VisitedSet only)
	// enters a fresh copy into visited under the handle it copies.
	cloneFn  func(any) (any, error)
	register func(orig, cp any)
}

// newRun starts a traversal in its own epoch.
func newRun(mode Mode) *run {
	r := &run{mode: mode, epoch: epochCounter.Add(1)}
	r.cloneFn = r.cloneAny
	if mode == VisitedSet {
		r.visited = make(map[any]reflect.Value)
		r.register = func(orig, cp any) { r.visited[orig] = reflect.ValueOf(cp) }
	}
	return r
}

// Snapshot is an immutable deep copy of a value graph, with the alias
// structure recorded faithfully (in RcAware and VisitedSet modes). It can
// be restored any number of times.
type Snapshot struct {
	val   reflect.Value
	typ   reflect.Type
	stats Stats
	mode  Mode
}

// Stats reports the traversal counters of the checkpoint run.
func (s *Snapshot) Stats() Stats { return s.stats }

// Checkpoint deep-copies v and returns the snapshot. The input graph is
// not modified except for the epoch words inside Rc boxes.
func (e *Engine) Checkpoint(v any) (*Snapshot, error) {
	r := newRun(e.mode)
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, fmt.Errorf("checkpoint of nil interface: %w", ErrUnsupported)
	}
	cp, err := r.clone(rv)
	if err != nil {
		return nil, err
	}
	return &Snapshot{val: cp, typ: rv.Type(), stats: r.stats, mode: e.mode}, nil
}

// Restore materializes a fresh mutable copy of the snapshot into *dst.
// dst must be a non-nil pointer whose element type matches the
// checkpointed value. Restoring re-runs the copy in the snapshot's mode,
// so alias structure recorded at checkpoint time is reproduced in the
// restored graph.
func (s *Snapshot) Restore(dst any) error {
	dv := reflect.ValueOf(dst)
	if dv.Kind() != reflect.Pointer || dv.IsNil() {
		return fmt.Errorf("restore destination must be a non-nil pointer: %w", ErrTypeMismatch)
	}
	if dv.Elem().Type() != s.typ {
		// Allow restoring into an interface destination that can hold
		// the snapshot's concrete type (e.g. *any), which heterogeneous
		// state stores rely on.
		if !(dv.Elem().Kind() == reflect.Interface && s.typ.AssignableTo(dv.Elem().Type())) {
			return fmt.Errorf("restore into %s, snapshot holds %s: %w", dv.Elem().Type(), s.typ, ErrTypeMismatch)
		}
	}
	r := newRun(s.mode)
	cp, err := r.clone(s.val)
	if err != nil {
		return err
	}
	dv.Elem().Set(cp)
	return nil
}

// Materialize returns a fresh mutable deep copy of the snapshot as an
// interface value, for callers that cannot provide a typed destination
// (e.g. code handling heterogeneous state graphs). The copy preserves the
// snapshot's alias structure like Restore.
func (s *Snapshot) Materialize() (any, error) {
	r := newRun(s.mode)
	cp, err := r.clone(s.val)
	if err != nil {
		return nil, err
	}
	return cp.Interface(), nil
}

// aliased is the engine's view of a linear.Rc[T] of any T: the handle's
// own first-visit flag, and Clone for the visited-set arm, reached by
// interface assertion so that this package needs neither T nor a second
// shared-pointer type.
type aliased interface {
	IsZero() bool
	CheckpointVisit(epoch uint64, clone func(any) (any, error), pre func(orig, cp any)) (cp any, first bool, err error)
	CloneAny() any
}

// The engine meets Rc only through the assertion; this is what stops
// compiling if the method it asserts for drifts.
var _ aliased = linear.Rc[struct{}]{}

// cloneAny is clone for callers outside reflection: Rc boxes and
// Checkpointable implementations.
func (r *run) cloneAny(v any) (any, error) {
	cv, err := r.clone(reflect.ValueOf(v))
	if err != nil || !cv.IsValid() {
		return nil, err
	}
	return cv.Interface(), nil
}

// cloneRc routes an Rc through the flag in its box. RcAware: the box
// copies itself once per epoch and every other alias gets a handle to
// that copy. Naive: every visit copies (Figure 3b). VisitedSet: the
// handle — comparable, equal exactly when the box is the same — goes
// through the run's address table, registered before the value is cloned
// so a cycle through the box ends there; a later alias takes one more
// strong handle to the registered copy, as RcAware's reuse does.
func (r *run) cloneRc(v reflect.Value, a aliased) (reflect.Value, error) {
	if a.IsZero() {
		return v, nil
	}
	epoch := r.epoch
	switch r.mode {
	case Naive:
		epoch = 0
	case VisitedSet:
		r.stats.SetProbes++
		if prev, ok := r.visited[v.Interface()]; ok {
			r.stats.RcReused++
			return reflect.ValueOf(prev.Interface().(aliased).CloneAny()), nil
		}
		epoch = 0
	}
	cp, first, err := a.CheckpointVisit(epoch, r.cloneFn, r.register)
	if err != nil {
		return reflect.Value{}, err
	}
	if first {
		r.stats.RcFirst++
	} else {
		r.stats.RcReused++
	}
	return reflect.ValueOf(cp), nil
}

// clone dispatches on the dynamic structure of v.
func (r *run) clone(v reflect.Value) (reflect.Value, error) {
	if !v.IsValid() {
		return v, nil
	}
	// Customization points first: Rc, then user-provided Checkpointable.
	// The aliased hook is restricted to struct kind so that a *Rc[T]
	// pointer (whose method set also includes the hook) still goes
	// through the pointer path and keeps its type.
	if v.CanInterface() {
		if v.Kind() == reflect.Struct {
			if a, ok := v.Interface().(aliased); ok {
				return r.cloneRc(v, a)
			}
		}
		if c, ok := v.Interface().(Checkpointable); ok {
			out, err := c.CheckpointCopy(r.cloneFn)
			if err != nil {
				return reflect.Value{}, err
			}
			ov := reflect.ValueOf(out)
			if ov.Type() != v.Type() {
				return reflect.Value{}, fmt.Errorf("CheckpointCopy of %s returned %s: %w", v.Type(), ov.Type(), ErrTypeMismatch)
			}
			return ov, nil
		}
	}

	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128, reflect.String:
		return v, nil

	case reflect.Pointer:
		return r.clonePointer(v)

	case reflect.Struct:
		return r.cloneStruct(v)

	case reflect.Slice:
		if v.IsNil() {
			return v, nil
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			cv, err := r.clone(v.Index(i))
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(cv)
		}
		return out, nil

	case reflect.Array:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.Len(); i++ {
			cv, err := r.clone(v.Index(i))
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(cv)
		}
		return out, nil

	case reflect.Map:
		if v.IsNil() {
			return v, nil
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		iter := v.MapRange()
		for iter.Next() {
			kc, err := r.clone(iter.Key())
			if err != nil {
				return reflect.Value{}, err
			}
			vc, err := r.clone(iter.Value())
			if err != nil {
				return reflect.Value{}, err
			}
			out.SetMapIndex(kc, vc)
		}
		return out, nil

	case reflect.Interface:
		if v.IsNil() {
			return v, nil
		}
		cv, err := r.clone(v.Elem())
		if err != nil {
			return reflect.Value{}, err
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(cv)
		return out, nil

	default:
		return reflect.Value{}, fmt.Errorf("%s (kind %s): %w", v.Type(), v.Kind(), ErrUnsupported)
	}
}

// clonePointer copies the pointee. In the linear regime a plain pointer is
// a unique owner, so no visited set is consulted (RcAware/Naive); the
// VisitedSet mode models the conventional language that cannot assume
// uniqueness and must probe the table for every pointer.
func (r *run) clonePointer(v reflect.Value) (reflect.Value, error) {
	if v.IsNil() {
		return v, nil
	}
	if r.mode == VisitedSet {
		key := v.Interface() // pointers are comparable map keys
		r.stats.SetProbes++
		if prev, ok := r.visited[key]; ok {
			return prev, nil
		}
		out := reflect.New(v.Type().Elem())
		r.visited[key] = out // record before recursing: handles cycles
		cv, err := r.clone(v.Elem())
		if err != nil {
			return reflect.Value{}, err
		}
		out.Elem().Set(cv)
		r.stats.Objects++
		return out, nil
	}
	cv, err := r.clone(v.Elem())
	if err != nil {
		return reflect.Value{}, err
	}
	out := reflect.New(v.Type().Elem())
	out.Elem().Set(cv)
	r.stats.Objects++
	return out, nil
}

func (r *run) cloneStruct(v reflect.Value) (reflect.Value, error) {
	t := v.Type()
	out := reflect.New(t).Elem()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return reflect.Value{}, fmt.Errorf("%s.%s: %w (implement Checkpointable for this type)", t, f.Name, ErrUnexported)
		}
		cv, err := r.clone(v.Field(i))
		if err != nil {
			return reflect.Value{}, err
		}
		out.Field(i).Set(cv)
	}
	return out, nil
}
