// Package txn builds the state-manipulation techniques the paper's §5
// motivates — transactions, replication, and multiversion reads — on top
// of the automatic checkpointing library, demonstrating that once
// checkpoint/restore is commoditized the rest follows as thin layers.
//
// "Many techniques for improving the performance and reliability of
// systems hinge on the ability to automatically manipulate program state
// in memory. In particular, checkpointing, transactions, replication,
// multiversion concurrency, etc., involve snapshotting parts of program
// state." (§5)
//
//   - Store provides atomic all-or-nothing updates: an update that
//     returns an error or panics rolls the state back to the snapshot
//     taken at transaction begin.
//   - Store keeps a bounded history of committed versions, serving
//     multiversion reads (ReadVersion).
//   - Replica consumes versioned snapshots from a Store and applies them
//     in order — rollback-recovery for middleboxes (Sherry et al. [37])
//     in miniature.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/checkpoint"
)

// Errors returned by transactional operations.
var (
	// ErrAborted reports that the update function failed (or panicked)
	// and the store was rolled back.
	ErrAborted = errors.New("txn: transaction aborted and rolled back")
	// ErrNoVersion reports a multiversion read of a version that is not
	// retained.
	ErrNoVersion = errors.New("txn: version not retained")
	// ErrStaleApply reports an out-of-order snapshot application to a
	// replica.
	ErrStaleApply = errors.New("txn: snapshot older than replica state")
)

// Store is a transactional container for a checkpointable value of type
// T. All methods are safe for concurrent use; updates serialize.
type Store[T any] struct {
	mu      sync.Mutex
	eng     *checkpoint.Engine
	value   T
	version uint64
	history []versioned // ring of recent committed snapshots
	keep    int
}

type versioned struct {
	version uint64
	snap    *checkpoint.Snapshot
}

// NewStore creates a store holding initial, retaining up to keep
// committed versions for multiversion reads (keep 0 retains none).
// T (and everything it references) must be checkpointable: exported
// fields, sharing through linear.Rc.
func NewStore[T any](initial T, keep int) (*Store[T], error) {
	s := &Store[T]{
		eng:   checkpoint.NewEngine(checkpoint.RcAware),
		value: initial,
		keep:  keep,
	}
	// Validate checkpointability up front and retain version 0.
	snap, err := s.eng.Checkpoint(initial)
	if err != nil {
		return nil, fmt.Errorf("txn: initial value not checkpointable: %w", err)
	}
	s.retain(0, snap)
	return s, nil
}

func (s *Store[T]) retain(version uint64, snap *checkpoint.Snapshot) {
	if s.keep <= 0 {
		return
	}
	s.history = append(s.history, versioned{version: version, snap: snap})
	if len(s.history) > s.keep {
		s.history = s.history[len(s.history)-s.keep:]
	}
}

// Version reports the committed version number.
func (s *Store[T]) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// View runs fn with read access to the committed state. fn must not
// mutate the value or retain references past its return.
func (s *Store[T]) View(fn func(T)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.value)
}

// Update runs fn inside a transaction: a checkpoint is taken first; if fn
// returns an error or panics, the state is restored from it and
// ErrAborted (wrapping the cause) is returned; otherwise the mutation
// commits and the version advances.
func (s *Store[T]) Update(fn func(*T) error) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, cerr := s.eng.Checkpoint(s.value)
	if cerr != nil {
		return fmt.Errorf("txn: begin: %w", cerr)
	}
	defer func() {
		if p := recover(); p != nil {
			if rerr := snap.Restore(&s.value); rerr != nil {
				panic(fmt.Sprintf("txn: rollback failed after panic %v: %v", p, rerr))
			}
			err = fmt.Errorf("panic %v: %w", p, ErrAborted)
		}
	}()
	if ferr := fn(&s.value); ferr != nil {
		if rerr := snap.Restore(&s.value); rerr != nil {
			return fmt.Errorf("txn: rollback failed: %w (after %v)", rerr, ferr)
		}
		return fmt.Errorf("%v: %w", ferr, ErrAborted)
	}
	s.version++
	commit, cerr := s.eng.Checkpoint(s.value)
	if cerr != nil {
		return fmt.Errorf("txn: commit snapshot: %w", cerr)
	}
	s.retain(s.version, commit)
	return nil
}

// Snapshot returns the latest committed version number and a snapshot of
// it, for replication.
func (s *Store[T]) Snapshot() (uint64, *checkpoint.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := s.eng.Checkpoint(s.value)
	if err != nil {
		return 0, nil, err
	}
	return s.version, snap, nil
}

// ReadVersion materializes a retained historical version into *dst.
func (s *Store[T]) ReadVersion(version uint64, dst *T) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.history {
		if v.version == version {
			return v.snap.Restore(dst)
		}
	}
	return fmt.Errorf("version %d (retained %d..%d): %w", version, s.oldest(), s.version, ErrNoVersion)
}

func (s *Store[T]) oldest() uint64 {
	if len(s.history) == 0 {
		return s.version
	}
	return s.history[0].version
}

// Replica is a follower that applies versioned snapshots in order.
type Replica[T any] struct {
	mu      sync.Mutex
	value   T
	version uint64
	applied bool
}

// NewReplica creates an empty replica.
func NewReplica[T any]() *Replica[T] { return &Replica[T]{} }

// Apply installs a snapshot at the given version. Versions must be
// non-decreasing; stale snapshots are rejected.
func (r *Replica[T]) Apply(version uint64, snap *checkpoint.Snapshot) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.applied && version < r.version {
		return fmt.Errorf("apply %d over %d: %w", version, r.version, ErrStaleApply)
	}
	if err := snap.Restore(&r.value); err != nil {
		return err
	}
	r.version = version
	r.applied = true
	return nil
}

// Version reports the replica's applied version.
func (r *Replica[T]) Version() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.version
}

// View runs fn with read access to the replica state.
func (r *Replica[T]) View(fn func(T)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.value)
}

// SyncFrom pulls the primary's latest snapshot into the replica.
func (r *Replica[T]) SyncFrom(s *Store[T]) error {
	v, snap, err := s.Snapshot()
	if err != nil {
		return err
	}
	return r.Apply(v, snap)
}
