// Package sfi implements the paper's §3 contribution: zero-copy software
// fault isolation built on linear ownership.
//
// The library exports the paper's two data types:
//
//   - protection domains (Domain) — all domains allocate from the common
//     Go heap but share no data; and
//   - remote references (RRef) — the only channel through which domains
//     interact.
//
// An exported object stays in its owner domain's reference table, wrapped
// in a strong Rc that acts as the proxy for remote invocations. The RRef
// handed to clients holds only a weak pointer to that proxy: revoking the
// entry (or tearing the domain down for recovery) makes every outstanding
// RRef fail closed at its next upgrade, exactly as in Figure 1.
//
// Arguments of remote invocations follow move semantics: CallMove
// transfers a linear.Owned argument into the callee, invalidating the
// caller's handle, so data crosses the boundary by reference with no copy
// and no residual access — the zero-copy SFI property the paper
// demonstrates on NetBricks.
//
// Fault recovery follows §3: a panic inside a domain is caught at the
// domain entry point (the remote-invocation boundary), an error is
// returned to the caller, the domain's reference table is cleared, and the
// user-provided recovery function reinitializes the domain from clean
// state. Because recovery re-populates the same table slots, RRef
// transparently re-binds on its next call.
package sfi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Errors returned by domain and remote-reference operations.
var (
	// ErrRevoked reports an invocation through an RRef whose table entry
	// was removed (weak upgrade failed and the slot is empty).
	ErrRevoked = errors.New("sfi: remote reference revoked")
	// ErrDomainFailed reports that the callee domain panicked during the
	// invocation; the domain has been torn down and is awaiting recovery.
	ErrDomainFailed = errors.New("sfi: domain failed during invocation")
	// ErrWrongType reports a type mismatch while re-binding an RRef to a
	// re-populated table slot.
	ErrWrongType = errors.New("sfi: table entry has wrong type")
)

// DomainID identifies a protection domain; a Manager numbers its domains
// from 1.
type DomainID uint32

// Stats holds per-domain counters — telemetry cells updated with
// uncontended atomic adds on the invocation path.
type Stats struct {
	Calls       telemetry.Counter // remote invocations entered
	Faults      telemetry.Counter // panics caught at the boundary
	Recoveries  telemetry.Counter // successful recovery runs
	Revocations telemetry.Counter // entries revoked (individually or by teardown)
	Exports     telemetry.Counter // objects exported into the table
	// Stale counts invocations refused because their binding was minted
	// under an older teardown generation — the in-flight-call-pins-
	// revoked-proxy case the generation stamp exists to catch.
	Stale telemetry.Counter
}

// Snapshot returns a plain-value copy of the counters (per the
// telemetry snapshot contract: each field exact, the set not an atomic
// cut).
func (s *Stats) Snapshot() (calls, faults, recoveries, revocations, exports uint64) {
	return s.Calls.Load(), s.Faults.Load(), s.Recoveries.Load(), s.Revocations.Load(), s.Exports.Load()
}

// registerMetrics exports the domain's counters on reg, labeled with
// the domain name over base.
func (d *Domain) registerMetrics(reg *telemetry.Registry, base telemetry.Labels) {
	labels := base.With("domain", d.name)
	reg.RegisterCounter("sfi_calls_total", labels, &d.Stats.Calls)
	reg.RegisterCounter("sfi_faults_total", labels, &d.Stats.Faults)
	reg.RegisterCounter("sfi_recoveries_total", labels, &d.Stats.Recoveries)
	reg.RegisterCounter("sfi_revocations_total", labels, &d.Stats.Revocations)
	reg.RegisterCounter("sfi_exports_total", labels, &d.Stats.Exports)
	reg.RegisterCounter("sfi_stale_refusals_total", labels, &d.Stats.Stale)
	reg.RegisterGaugeFunc("sfi_table_size", labels, func() float64 { return float64(d.TableSize()) })
}

// tableEntry is one slot of a domain's reference table. handle holds the
// strong linear.Rc[T] (type-erased); revoke drops it. typ is the exported
// object's dynamic type, named only by a re-bind that finds the wrong one.
type tableEntry struct {
	handle interface{ Drop() error }
	typ    reflect.Type
}

// revoke drops the table's strong handle.
func (e *tableEntry) revoke() { _ = e.handle.Drop() }

// typeName is fmt's %T of the exported object.
func (e *tableEntry) typeName() string {
	if e.typ == nil {
		return "<nil>"
	}
	return e.typ.String()
}

// Domain is a protection domain. Create domains through a Manager so that
// recovery can be orchestrated; the zero Domain is invalid.
type Domain struct {
	id   DomainID
	name string

	// failed is set from a fault's teardown until recovery completes; a
	// live domain accepts invocations.
	failed atomic.Bool
	// gen is the teardown generation: bumped whenever table entries are
	// revoked (fault teardown, Revoke, export-over-live-entry). RRef
	// bindings record the generation they were minted under; a binding
	// from an older generation is refused by the invocation fast path
	// even if its proxy is still pinned alive by an in-flight call —
	// without this, a long-running invocation holding the strong handle
	// across a fault would let *new* calls through to the torn-down
	// object instead of failing closed.
	gen atomic.Uint64

	mu       sync.RWMutex
	table    map[uint64]*tableEntry
	nextSlot uint64
	// revoking is clearTable's scratch list of the entries it cleared,
	// kept between teardowns; a teardown takes it under mu and puts it
	// back once it has revoked them.
	revoking []*tableEntry

	recovery func(*Domain) error

	// Stats is exported for benchmarks and the management plane.
	Stats Stats
}

// Name returns the human-readable name given at creation.
func (d *Domain) Name() string { return d.name }

// Live reports whether the domain currently accepts invocations.
func (d *Domain) Live() bool { return !d.failed.Load() }

// Failed reports whether the domain is torn down and awaiting recovery.
func (d *Domain) Failed() bool { return d.failed.Load() }

// SetRecovery installs the user-provided recovery function, run by the
// manager after a fault to reinitialize the domain from clean state. The
// function typically re-creates the domain's objects and re-exports them
// into the (cleared) reference table via ExportAt, making the failure
// transparent to clients holding RRefs.
func (d *Domain) SetRecovery(fn func(*Domain) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recovery = fn
}

// lookup returns the entry at slot, or nil.
func (d *Domain) lookup(slot uint64) *tableEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.table[slot]
}

// Revoke removes a single reference-table entry, immediately invalidating
// every RRef minted for it. Revoking an empty slot is a no-op.
func (d *Domain) Revoke(slot uint64) {
	d.mu.Lock()
	e := d.table[slot]
	delete(d.table, slot)
	d.mu.Unlock()
	if e != nil {
		d.gen.Add(1)
		e.revoke()
		d.Stats.Revocations.Add(1)
	}
}

// TableSize reports the number of live entries in the reference table.
func (d *Domain) TableSize() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.table)
}

// clearTable revokes every entry; used by teardown and recovery. "By
// clearing the reference table one can automatically deallocate all memory
// and resources owned by the domain" (§3): dropping the strong Rcs severs
// the only rooted references, so the Go GC reclaims the objects and all
// outstanding weak handles fail to upgrade.
func (d *Domain) clearTable() {
	d.mu.Lock()
	entries := d.revoking[:0]
	d.revoking = nil
	for _, e := range d.table {
		entries = append(entries, e)
	}
	clear(d.table)
	d.mu.Unlock()
	// Invalidate every outstanding rref binding, including ones whose
	// proxies are pinned alive by in-flight invocations: new calls must
	// fail closed (or re-bind after recovery), not reach the old object.
	d.gen.Add(1)
	d.Stats.Revocations.Add(uint64(len(entries)))
	for _, e := range entries {
		e.revoke()
	}
	clear(entries)
	d.mu.Lock()
	d.revoking = entries
	d.mu.Unlock()
}

// teardown is the §3 teardown step ("unwind to the domain entry point,
// clear the reference table"), run when a panic is caught at the domain
// boundary: the domain is marked failed and its reference table cleared,
// so every outstanding RRef fails closed until Manager.Recover
// re-populates the slots. Tearing down a domain that is not live is a
// no-op; teardown reports whether it performed one.
func (d *Domain) teardown() bool {
	if !d.failed.CompareAndSwap(false, true) {
		return false
	}
	d.Stats.Faults.Add(1)
	d.clearTable()
	return true
}

// Manager is the management plane controlling domain lifecycle: creation
// and fault recovery.
type Manager struct {
	mu      sync.Mutex
	nextID  uint32
	reg     *telemetry.Registry
	regBase telemetry.Labels
}

// SetRegistry makes every domain the manager creates from now on export
// its counters on reg, labeled {"domain": name} over base. base
// disambiguates managers sharing one registry (e.g. per-worker isolated
// pipelines pass {"worker": n}).
func (m *Manager) SetRegistry(reg *telemetry.Registry, base telemetry.Labels) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.regBase = base
}

// NewManager creates an empty management plane.
func NewManager() *Manager { return &Manager{} }

// NewDomain creates a live protection domain.
func (m *Manager) NewDomain(name string) *Domain {
	m.mu.Lock()
	m.nextID++
	d := &Domain{
		id:    DomainID(m.nextID),
		name:  name,
		table: make(map[uint64]*tableEntry),
	}
	reg, base := m.reg, m.regBase
	m.mu.Unlock()
	if reg != nil {
		d.registerMetrics(reg, base)
	}
	return d
}

// Recover runs the §3 recovery protocol on a failed domain: the reference
// table has already been cleared at fault time; Recover re-initializes the
// domain from clean state by running the user recovery function, then
// marks it live. RRefs held by clients re-bind to the re-populated slots
// on their next invocation.
func (m *Manager) Recover(d *Domain) error {
	if !d.failed.CompareAndSwap(true, false) {
		return fmt.Errorf("recover domain %d: domain is not in failed state", d.id)
	}
	d.mu.RLock()
	rec := d.recovery
	d.mu.RUnlock()
	if rec != nil {
		if err := rec(d); err != nil {
			d.failed.Store(true)
			return fmt.Errorf("recover domain %d: recovery function: %w", d.id, err)
		}
	}
	d.Stats.Recoveries.Add(1)
	return nil
}
