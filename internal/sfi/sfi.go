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
	// ErrDomainDead reports an operation on a destroyed domain.
	ErrDomainDead = errors.New("sfi: domain destroyed")
	// ErrDomainFailed reports that the callee domain panicked during the
	// invocation; the domain has been torn down and is awaiting recovery.
	ErrDomainFailed = errors.New("sfi: domain failed during invocation")
	// ErrAccessDenied reports that the access-control policy rejected a
	// cross-domain call.
	ErrAccessDenied = errors.New("sfi: access denied by policy")
	// ErrWrongType reports a type mismatch while re-binding an RRef to a
	// re-populated table slot.
	ErrWrongType = errors.New("sfi: table entry has wrong type")
)

// DomainID identifies a protection domain. ID 0 is the root (manager)
// domain that exists outside any Domain object.
type DomainID uint32

// RootDomain is the implicit domain of code not executing inside any PD.
const RootDomain DomainID = 0

// domainState tracks the lifecycle of a protection domain.
type domainState int32

const (
	stateLive domainState = iota
	stateFailed
	stateDead
)

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
// strong linear.Rc[T] (type-erased); revoke drops it; interceptor, when
// non-nil, screens each invocation through this slot. typ is the exported
// object's dynamic type, named only by a re-bind that finds the wrong one.
type tableEntry struct {
	handle      interface{ Drop() error }
	interceptor Interceptor
	typ         reflect.Type
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

// Interceptor screens a single invocation through a table entry. It runs
// after the domain-level policy and may reject the call; this is the
// paper's "intercept remote invocations for fine-grained access control".
type Interceptor func(caller DomainID, method string) error

// Domain is a protection domain. Create domains through a Manager so that
// recovery can be orchestrated; the zero Domain is invalid.
type Domain struct {
	id   DomainID
	name string
	mgr  *Manager

	state atomic.Int32
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
	// policy is read on every remote invocation; it is stored atomically
	// so the hot path never takes the table lock.
	policy atomic.Pointer[Policy]

	// Stats is exported for benchmarks and the management plane.
	Stats Stats
}

// ID returns the domain's identifier.
func (d *Domain) ID() DomainID { return d.id }

// Name returns the human-readable name given at creation.
func (d *Domain) Name() string { return d.name }

// Live reports whether the domain currently accepts invocations.
func (d *Domain) Live() bool { return domainState(d.state.Load()) == stateLive }

// Failed reports whether the domain is torn down and awaiting recovery.
func (d *Domain) Failed() bool { return domainState(d.state.Load()) == stateFailed }

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

// SetPolicy installs the domain-level access-control policy consulted on
// every inbound invocation. A nil policy admits all callers.
func (d *Domain) SetPolicy(p Policy) {
	if p == nil {
		d.policy.Store(nil)
		return
	}
	d.policy.Store(&p)
}

// Execute runs fn in the context of this domain: the current-domain ID
// visible through ctx is d's for the duration. This mirrors the paper's
// Domain::execute(&d, || ...), used to create objects "inside" a PD.
func (d *Domain) Execute(ctx *Context, fn func() error) error {
	if !d.Live() {
		return fmt.Errorf("Execute on domain %d (%s): %w", d.id, d.name, stateErr(domainState(d.state.Load())))
	}
	ctx.push(d.id)
	defer ctx.pop()
	return fn()
}

func stateErr(s domainState) error {
	switch s {
	case stateFailed:
		return ErrDomainFailed
	case stateDead:
		return ErrDomainDead
	default:
		return nil
	}
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

// Reset tears a live domain down to its post-fault state: the domain is
// marked failed and its reference table is cleared, so every outstanding
// RRef fails closed until Manager.Recover re-populates the slots. This is
// the §3 teardown step ("unwind to the domain entry point, clear the
// reference table") exported as a reusable operation: the call path
// invokes it when a panic is caught at the domain boundary, and external
// supervisors invoke it directly to retire a domain they have declared
// hung or otherwise unhealthy. Resetting a domain that is not live is a
// no-op; Reset reports whether it performed the teardown.
func (d *Domain) Reset() bool {
	if !d.state.CompareAndSwap(int32(stateLive), int32(stateFailed)) {
		return false
	}
	d.Stats.Faults.Add(1)
	d.clearTable()
	return true
}

// fail tears the domain down after a caught panic: mark failed, then clear
// the reference table so clients fail closed until recovery.
func (d *Domain) fail() { d.Reset() }

// Destroy permanently tears the domain down.
func (d *Domain) Destroy() {
	d.state.Store(int32(stateDead))
	d.clearTable()
	if d.mgr != nil {
		d.mgr.forget(d.id)
	}
}

// Manager is the management plane controlling domain lifecycle: creation,
// lookup, and fault recovery.
type Manager struct {
	mu      sync.RWMutex
	domains map[DomainID]*Domain
	nextID  uint32
	reg     *telemetry.Registry
	regBase telemetry.Labels
}

// SetRegistry makes the manager export every domain's counters on reg,
// labeled {"domain": name} over base. Existing domains are registered
// immediately; domains created later register at creation. base
// disambiguates managers sharing one registry (e.g. per-worker isolated
// pipelines pass {"worker": n}).
func (m *Manager) SetRegistry(reg *telemetry.Registry, base telemetry.Labels) {
	m.mu.Lock()
	m.reg = reg
	m.regBase = base
	doms := make([]*Domain, 0, len(m.domains))
	for _, d := range m.domains {
		doms = append(doms, d)
	}
	m.mu.Unlock()
	for _, d := range doms {
		d.registerMetrics(reg, base)
	}
}

// NewManager creates an empty management plane.
func NewManager() *Manager {
	return &Manager{domains: make(map[DomainID]*Domain)}
}

// NewDomain creates a live protection domain.
func (m *Manager) NewDomain(name string) *Domain {
	m.mu.Lock()
	m.nextID++
	d := &Domain{
		id:    DomainID(m.nextID),
		name:  name,
		mgr:   m,
		table: make(map[uint64]*tableEntry),
	}
	d.state.Store(int32(stateLive))
	m.domains[d.id] = d
	reg, base := m.reg, m.regBase
	m.mu.Unlock()
	if reg != nil {
		d.registerMetrics(reg, base)
	}
	return d
}

// Domain returns the domain with the given ID, if it exists.
func (m *Manager) Domain(id DomainID) (*Domain, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.domains[id]
	return d, ok
}

// Domains returns a snapshot of all registered domains.
func (m *Manager) Domains() []*Domain {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Domain, 0, len(m.domains))
	for _, d := range m.domains {
		out = append(out, d)
	}
	return out
}

func (m *Manager) forget(id DomainID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.domains, id)
}

// Recover runs the §3 recovery protocol on a failed domain: the reference
// table has already been cleared at fault time; Recover re-initializes the
// domain from clean state by running the user recovery function, then
// marks it live. RRefs held by clients re-bind to the re-populated slots
// on their next invocation.
func (m *Manager) Recover(d *Domain) error {
	if domainState(d.state.Load()) == stateDead {
		return fmt.Errorf("recover domain %d: %w", d.id, ErrDomainDead)
	}
	if !d.state.CompareAndSwap(int32(stateFailed), int32(stateLive)) {
		return fmt.Errorf("recover domain %d: domain is not in failed state", d.id)
	}
	d.mu.RLock()
	rec := d.recovery
	d.mu.RUnlock()
	if rec != nil {
		if err := rec(d); err != nil {
			d.state.Store(int32(stateFailed))
			return fmt.Errorf("recover domain %d: recovery function: %w", d.id, err)
		}
	}
	d.Stats.Recoveries.Add(1)
	return nil
}
