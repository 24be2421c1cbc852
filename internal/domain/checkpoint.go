package domain

// This file wires the paper's §5 contribution — automatic
// checkpoint/restore of pointer-linked state — into the §3 supervised
// runtime. A domain whose Config carries a Stateful gets snapshotted
// periodically (Policy.CheckpointEvery) by its own serving goroutine, at
// mailbox-quiescent points: either the inbox is empty and the epoch
// ticker fired, or one handler invocation just completed and the next has
// not begun. In both cases no handler is running, and handlers are the
// only mutators the runtime drives, so the traversal races nothing on the
// hot path. (An abandoned hung generation may still hold references —
// Stateful implementations serialize against that with their own lock.)
//
// On restart the supervisor's monitor goroutine hands the last *good*
// checkpoint to Restore instead of cold-starting: a fault mid-traversal
// discards the half-built snapshot (it was never published) and the
// previous token stands. Only a domain with no completed epoch resets to
// zero state.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/telemetry"
)

// Stateful is the contract a domain's NF state implements to opt into
// checkpointed recovery — the runtime-level shape of the paper's
// Checkpointable trait. Implementations own their synchronization:
// Checkpoint/Restore/Reset must take the state's internal lock, because
// an abandoned (hung, superseded) generation can still be touching the
// state when the current generation snapshots or the monitor restores.
type Stateful interface {
	// Checkpoint returns an opaque restore token capturing the state at
	// this instant. e is an RcAware engine for states that snapshot by
	// traversal; a state that keeps its checkpoint in wire form ignores
	// it. The token must be independent of the live state (later
	// mutations must not leak into it), freshly allocated by this call,
	// and never written again once returned: the runtime keeps it as
	// the last good epoch while the store and a restore may be reading
	// the same memory.
	Checkpoint(e *checkpoint.Engine) (any, error)
	// Restore replaces the live state with the token's contents. The
	// token is always one previously returned by Checkpoint (or
	// DecodeToken) on a state of the same shape, and may be restored
	// again later: Restore only reads it.
	Restore(token any) error
	// Reset reinitializes to clean boot state — the cold start taken
	// when no checkpoint epoch has completed (or under RestoreCold).
	Reset()
}

// TokenCodec is the optional durability extension of Stateful: states
// that can serialize their checkpoint tokens to bytes (and back) can be
// persisted through a Policy.Persist store and survive process death,
// not just domain restarts. DecodeToken must return a token acceptable
// to the same state's Restore, and must not touch live state — the
// runtime may decode before the state ever serves.
//
// Ownership: both directions may alias rather than copy. A state whose
// token is its wire form returns the token's own bytes from EncodeToken
// and hands data back as the token from DecodeToken. That is sound
// because an epoch's bytes are immutable from the moment Checkpoint
// returns them: the domain (its last good epoch), the store (its newest
// record) and any restore in progress share one buffer that nobody
// writes.
type TokenCodec interface {
	// EncodeToken serializes a token previously returned by Checkpoint.
	// The result may share memory with the token and must not be
	// written to.
	EncodeToken(token any) ([]byte, error)
	// DecodeToken validates EncodeToken's bytes and returns a restorable
	// token, which may retain data; the caller must not write to data
	// afterwards.
	DecodeToken(data []byte) (any, error)
}

// Persister is the durable epoch store the runtime appends encoded
// checkpoint tokens to — implemented by statestore.Store (structurally;
// the domain runtime stays storage-agnostic). Implementations must be
// safe for concurrent use: every domain of a supervisor shares one.
type Persister interface {
	// PersistEpoch durably records the named domain's epoch seq.
	// seq is monotonic per name within and across process lifetimes.
	// Ownership of payload moves to the store: it may retain the slice
	// as the domain's newest epoch instead of copying it, so the caller
	// must never write to payload again (reading it, as the domain does
	// for restores, stays safe — the store only reads it too).
	PersistEpoch(name string, seq uint64, payload []byte) error
	// LastEpoch returns the newest durable epoch for the named domain.
	// The payload may be the store's own retained slice: read-only.
	LastEpoch(name string) (payload []byte, seq uint64, ok bool, err error)
}

// RestoreMode selects what a restarted domain's state recovery does.
type RestoreMode int

const (
	// RestoreCheckpoint (the default) restores the last good checkpoint,
	// cold-starting only when no epoch has completed.
	RestoreCheckpoint RestoreMode = iota
	// RestoreCold always resets to zero state — the ablation baseline
	// the chaos tier and benches compare against.
	RestoreCold
)

// String implements fmt.Stringer.
func (m RestoreMode) String() string {
	switch m {
	case RestoreCheckpoint:
		return "checkpoint"
	case RestoreCold:
		return "cold"
	default:
		return fmt.Sprintf("RestoreMode(%d)", int(m))
	}
}

// wireState is what a StateSet component must be: a Stateful whose
// Checkpoint token is its own wire bytes (so its TokenCodec is the
// identity plus validation) and which can append those bytes to a buffer
// the set owns. session.Table, maglev.Balancer and firewall.Stateful are
// the implementations.
type wireState interface {
	Stateful
	TokenCodec
	// CheckpointSize reports the bytes AppendCheckpoint would write now;
	// the set sizes one buffer for all components from it.
	CheckpointSize() int
	// AppendCheckpoint appends the state's wire form to buf, captured
	// under the state's own lock, and returns the extended buffer.
	AppendCheckpoint(buf []byte) ([]byte, error)
}

// StateSet composes named wire-form components into one Stateful, so a
// pipeline domain can checkpoint its firewall, balancer, and session
// table as a unit. The set's token is its own wire form — a u32 part
// count, then each component's bytes behind a u32 length — written once
// into one buffer per epoch; errors carry the component name.
type StateSet struct {
	names []string
	parts []Stateful
	wires []wireState // parts[i] as a wireState; nil if it is not one
}

// NewStateSet returns an empty set; Add components in a fixed order.
func NewStateSet() *StateSet { return &StateSet{} }

// Add appends a named component and returns the set for chaining. The
// component must keep its checkpoint in wire form (see wireState);
// Checkpoint reports one that does not.
func (s *StateSet) Add(name string, st Stateful) *StateSet {
	s.names = append(s.names, name)
	s.parts = append(s.parts, st)
	w, _ := st.(wireState)
	s.wires = append(s.wires, w)
	return s
}

// Len reports the number of components.
func (s *StateSet) Len() int { return len(s.parts) }

// checkWires reports the first component that is not a wireState.
func (s *StateSet) checkWires() error {
	for i, w := range s.wires {
		if w == nil {
			return fmt.Errorf("domain: state %s (%T) has no wire form to compose", s.names[i], s.parts[i])
		}
	}
	return nil
}

// Checkpoint captures every component into one fresh buffer sized for
// all of them: each appends its bytes behind a length prefix that is
// patched in once the component has written. The engine is unused.
func (s *StateSet) Checkpoint(*checkpoint.Engine) (any, error) {
	if err := s.checkWires(); err != nil {
		return nil, err
	}
	size := 4
	for _, w := range s.wires {
		size += 4 + w.CheckpointSize()
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(s.wires)))
	for i, w := range s.wires {
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		var err error
		if buf, err = w.AppendCheckpoint(buf); err != nil {
			return nil, fmt.Errorf("state %s: %w", s.names[i], err)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return buf, nil
}

// split validates the set's framing and returns each component's bytes
// (subslices of data, not copies).
func (s *StateSet) split(data []byte) ([][]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("domain: state-set token truncated")
	}
	if n := int(binary.LittleEndian.Uint32(data)); n != len(s.parts) {
		return nil, fmt.Errorf("domain: state-set token has %d parts, set has %d", n, len(s.parts))
	}
	data = data[4:]
	parts := make([][]byte, len(s.parts))
	for i := range parts {
		if len(data) < 4 {
			return nil, fmt.Errorf("domain: state-set token truncated at %s", s.names[i])
		}
		partLen := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < partLen {
			return nil, fmt.Errorf("domain: state-set token truncated at %s", s.names[i])
		}
		parts[i], data = data[:partLen], data[partLen:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("domain: state-set token has %d trailing bytes", len(data))
	}
	return parts, nil
}

// Restore hands each component its bytes of a Checkpoint token.
func (s *StateSet) Restore(token any) error {
	data, ok := token.([]byte)
	if !ok {
		return fmt.Errorf("domain: state-set token has wrong shape (%T)", token)
	}
	parts, err := s.split(data)
	if err != nil {
		return err
	}
	for i, p := range s.parts {
		if err := p.Restore(parts[i]); err != nil {
			return fmt.Errorf("state %s: %w", s.names[i], err)
		}
	}
	return nil
}

// Reset cold-starts every component.
func (s *StateSet) Reset() {
	for _, p := range s.parts {
		p.Reset()
	}
}

// EncodeToken implements TokenCodec: a Checkpoint token already is its
// wire form, returned without copying.
func (s *StateSet) EncodeToken(token any) ([]byte, error) {
	data, ok := token.([]byte)
	if !ok {
		return nil, fmt.Errorf("domain: state-set token has wrong shape (%T)", token)
	}
	return data, nil
}

// DecodeToken implements TokenCodec: validate the framing and every
// component's bytes, and hand data back as the token.
func (s *StateSet) DecodeToken(data []byte) (any, error) {
	if err := s.checkWires(); err != nil {
		return nil, err
	}
	parts, err := s.split(data)
	if err != nil {
		return nil, err
	}
	for i, w := range s.wires {
		if _, err := w.DecodeToken(parts[i]); err != nil {
			return nil, fmt.Errorf("state %s: decode: %w", s.names[i], err)
		}
	}
	return data, nil
}

// ckptToken is one published checkpoint: the adapter's opaque token plus
// the serving epoch and wall time it was taken at. seq is the durable
// sequence number (0 when persistence is off).
type ckptToken struct {
	token any
	epoch uint64
	seq   uint64
	at    time.Time
}

// ckptState is a domain's checkpoint machinery, allocated only when the
// domain has a Stateful and the policy enables epochs.
type ckptState struct {
	state  Stateful
	engine *checkpoint.Engine // RcAware; wire-form states ignore it
	every  time.Duration
	mode   RestoreMode

	// last is the newest good checkpoint; published by the serving
	// goroutine, consumed by the monitor's restore. Never holds a
	// half-built snapshot: a fault during traversal leaves it untouched.
	last atomic.Pointer[ckptToken]
	// lastAttempt (unix nanos) paces epochs across both trigger paths
	// (idle ticker and post-invocation dueness check).
	lastAttempt atomic.Int64

	// Durability (nil/zero when Policy.Persist is unset): every published
	// epoch is encoded through codec and appended to persist under a
	// per-domain monotonic sequence, and Spawn seeds last from the store's
	// newest durable epoch so process restarts restore instead of
	// cold-starting.
	persist Persister
	codec   TokenCodec
	seq     atomic.Uint64

	taken         telemetry.Counter
	failed        telemetry.Counter
	restores      telemetry.Counter
	coldStarts    telemetry.Counter
	persisted     telemetry.Counter
	persistFailed telemetry.Counter
	ckptLat       telemetry.Histogram
	restoreLat    telemetry.Histogram
	persistLat    telemetry.Histogram
}

// due reports whether a full epoch has elapsed since the last attempt.
func (c *ckptState) due(now time.Time) bool {
	return now.UnixNano()-c.lastAttempt.Load() >= int64(c.every)
}

// takeCheckpoint runs one snapshot epoch on the serving goroutine. A
// panic inside the traversal (or the adapter) is a domain fault exactly
// like a handler panic: the error propagates to the supervisor, the
// half-built snapshot is discarded unpublished, and the previous good
// token keeps standing. A checkpoint *error* is softer — the domain keeps
// serving on its last good epoch and the failure is only counted.
func (d *Domain[T]) takeCheckpoint(epoch uint64) (fault error) {
	ck := d.ck
	start := time.Now()
	ck.lastAttempt.Store(start.UnixNano())
	defer func() {
		if p := recover(); p != nil {
			d.st.crashes.Add(1)
			ck.failed.Add(1)
			d.rec.Record(d.actor, telemetry.EvPanic, d.faultStreak.Load()+1)
			fault = fmt.Errorf("domain %s: checkpoint panic: %v: %w", d.name, p, ErrCrashed)
		}
	}()
	token, err := ck.state.Checkpoint(ck.engine)
	if err != nil {
		ck.failed.Add(1)
		return nil
	}
	lat := time.Since(start)
	tok := &ckptToken{token: token, epoch: epoch, at: start}
	if ck.persist != nil {
		tok.seq = ck.seq.Add(1)
	}
	ck.last.Store(tok)
	ck.taken.Add(1)
	ck.ckptLat.Observe(lat)
	d.rec.Record(d.actor, telemetry.EvCheckpoint, uint64(lat))
	if ck.persist != nil {
		// Still inside the fault guard: a panic in the codec or the store
		// is a domain fault, but the RAM epoch above already stands — the
		// restart restores it. A persist *error* is softer yet: the domain
		// keeps serving, only durability lags (counted, never published).
		d.persistEpoch(tok)
	}
	return nil
}

// persistEpoch encodes one published epoch and appends it to the policy
// store, on the serving goroutine (the checkpoint already paid the
// traversal; the append is the cheap half, and ordering per domain is
// free on one goroutine).
func (d *Domain[T]) persistEpoch(tok *ckptToken) {
	ck := d.ck
	start := time.Now()
	payload, err := ck.codec.EncodeToken(tok.token)
	if err == nil {
		err = ck.persist.PersistEpoch(d.name, tok.seq, payload)
	}
	if err != nil {
		ck.persistFailed.Add(1)
		return
	}
	ck.persisted.Add(1)
	ck.persistLat.Observe(time.Since(start))
}

// loadDurable seeds the checkpoint machinery from the store's newest
// durable epoch at Spawn time: the decoded token becomes the domain's
// last good checkpoint (so even a pre-traffic fault restores it), the
// sequence continues where the dead process stopped, and under
// RestoreCheckpoint the state is restored immediately — a process
// restart with ≥1 durable epoch cold-starts nothing. Errors are Spawn
// errors: a store that cannot be read or a token that cannot be decoded
// is a misconfiguration, not a fault to retry through.
func (d *Domain[T]) loadDurable() error {
	ck := d.ck
	payload, seq, ok, err := ck.persist.LastEpoch(d.name)
	if err != nil {
		return fmt.Errorf("domain %s: load durable epoch: %w", d.name, err)
	}
	if !ok {
		return nil
	}
	token, err := ck.codec.DecodeToken(payload)
	if err != nil {
		return fmt.Errorf("domain %s: decode durable epoch %d: %w", d.name, seq, err)
	}
	ck.seq.Store(seq)
	ck.last.Store(&ckptToken{token: token, seq: seq, at: time.Now()})
	if ck.mode != RestoreCheckpoint {
		return nil
	}
	start := time.Now()
	if err := ck.state.Restore(token); err != nil {
		return fmt.Errorf("domain %s: restore durable epoch %d: %w", d.name, seq, err)
	}
	lat := time.Since(start)
	ck.restores.Add(1)
	ck.restoreLat.Observe(lat)
	d.rec.Record(d.actor, telemetry.EvRestore, uint64(lat))
	return nil
}

// restoreOrReset is the state half of a restart, run on the monitor
// goroutine after the sfi reference table has been recovered and the
// user Recover hook (pipeline rebuild) has completed. With a good
// checkpoint and RestoreCheckpoint mode the state is restored from the
// last token; otherwise it cold-starts. A restore error is a fault — the
// streak keeps growing, converging on degrade/stop.
func (d *Domain[T]) restoreOrReset() error {
	ck := d.ck
	if last := ck.last.Load(); last != nil && ck.mode == RestoreCheckpoint {
		start := time.Now()
		if err := ck.state.Restore(last.token); err != nil {
			ck.failed.Add(1)
			return fmt.Errorf("domain %s: restore checkpoint: %w", d.name, err)
		}
		lat := time.Since(start)
		ck.restores.Add(1)
		ck.restoreLat.Observe(lat)
		d.rec.Record(d.actor, telemetry.EvRestore, uint64(lat))
		return nil
	}
	ck.state.Reset()
	ck.coldStarts.Add(1)
	d.rec.Record(d.actor, telemetry.EvColdStart, 0)
	return nil
}

// LastCheckpoint reports when the newest good checkpoint was taken and
// whether one exists — test and operational introspection.
func (d *Domain[T]) LastCheckpoint() (time.Time, bool) {
	if d.ck == nil {
		return time.Time{}, false
	}
	last := d.ck.last.Load()
	if last == nil {
		return time.Time{}, false
	}
	return last.at, true
}

// registerCkptMetrics exports the checkpoint cells; called from
// registerMetrics when checkpointing is enabled.
func (d *Domain[T]) registerCkptMetrics(reg telemetry.Registrar, labels telemetry.Labels) {
	reg.RegisterCounter("domain_checkpoints_taken_total", labels, &d.ck.taken)
	reg.RegisterCounter("domain_checkpoint_failures_total", labels, &d.ck.failed)
	reg.RegisterCounter("domain_restores_total", labels, &d.ck.restores)
	reg.RegisterCounter("domain_cold_starts_total", labels, &d.ck.coldStarts)
	reg.RegisterHistogram("domain_checkpoint_seconds", labels, &d.ck.ckptLat)
	reg.RegisterHistogram("domain_restore_seconds", labels, &d.ck.restoreLat)
	if d.ck.persist != nil {
		reg.RegisterCounter("domain_checkpoints_persisted_total", labels, &d.ck.persisted)
		reg.RegisterCounter("domain_persist_failures_total", labels, &d.ck.persistFailed)
		reg.RegisterHistogram("domain_persist_seconds", labels, &d.ck.persistLat)
	}
}
