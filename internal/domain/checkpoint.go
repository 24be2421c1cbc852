package domain

// This file wires the paper's §5 contribution — automatic
// checkpoint/restore of pointer-linked state — into the §3 supervised
// runtime. A domain whose Config carries a Stateful gets snapshotted
// periodically (Policy.CheckpointEvery) by its own serving goroutine, at
// mailbox-quiescent points: either the inbox is empty and the monitor
// woke the domain for its epoch, or one handler invocation just completed
// and the next has not begun. In both cases no handler is running, and
// handlers are the only mutators the runtime drives, so the traversal
// races nothing on the hot path. (An abandoned hung generation may still
// hold references; Stateful implementations lock against that.)
//
// On restart the supervisor's monitor goroutine hands the last *good*
// checkpoint to Restore: a fault mid-traversal discards the half-built
// snapshot (it was never published) and the previous token stands. Spawn
// seeds that token before the domain first serves, so there always is
// one: a restart always restores.
//
// An epoch's buffer has one owner at every instant (DESIGN.md, "Who owns
// an epoch buffer"; takeCheckpoint has the hand-back rules).

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/telemetry"
)

// Stateful is the contract a domain's NF state implements to opt into
// checkpointed recovery — the runtime-level shape of the paper's
// Checkpointable trait; Spawn takes its first checkpoint. Implementations
// own their synchronization: Checkpoint and Restore must take the state's
// internal lock, because an abandoned (hung, superseded) generation can
// still be touching the state when the current generation snapshots or
// the monitor restores.
type Stateful interface {
	// Checkpoint returns an opaque restore token capturing the state at
	// this instant. e is an RcAware engine for states that snapshot by
	// traversal; StateSet, whose token is its wire form, ignores it. The
	// token must be independent of the live state (later mutations must
	// not leak into it) and not written again until the runtime hands it
	// back: the runtime keeps it as the last good epoch while a restore
	// or the store's append may be reading the same memory. A state that
	// does not implement RecycleToken (see tokenRecycler) is never handed
	// anything back, so for it "until" is "ever".
	Checkpoint(e *checkpoint.Engine) (any, error)
	// Restore replaces the live state with the token's contents. The
	// token is always one previously returned by Checkpoint (or
	// DecodeToken) on a state of the same shape, and may be restored
	// again later: Restore only reads it.
	Restore(token any) error
}

// TokenCodec is the optional durability extension of Stateful: states
// that can serialize their checkpoint tokens to bytes (and back) can be
// persisted through a Policy.Persist store and survive process death,
// not just domain restarts. DecodeToken must return a token acceptable
// to the same state's Restore, and must not touch live state — the
// runtime may decode before the state ever serves.
//
// Ownership: both directions may alias rather than copy. StateSet, whose
// token is its wire form, returns the token's own bytes from EncodeToken
// and hands data back as the token from DecodeToken. That is sound
// because an epoch's bytes are not written again until the runtime
// hands the token back: from the moment Checkpoint returns them, the
// domain (its last good epoch), the store (for the one PersistEpoch
// call that appends them) and any restore in progress share one buffer
// that nobody writes. The bytes DecodeToken is given are the caller's:
// LastEpoch's fresh slice, which nothing else holds.
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
	// payload is borrowed for the call: the store reads it (it may write
	// it to disk without copying) but keeps nothing of it once the call
	// returns, so the caller may write to it from then on.
	PersistEpoch(name string, seq uint64, payload []byte) error
	// LastEpoch returns the newest durable epoch for the named domain,
	// in a slice the caller owns. A durable domain's restart restores
	// through it: the runtime holds a successfully persisted epoch as a
	// reference to the store's newest record, not as bytes.
	LastEpoch(name string) (payload []byte, seq uint64, ok bool, err error)
}

// tokenRecycler is the optional hand-back half of Stateful, found by
// type assertion at Spawn. The runtime calls RecycleToken with a token
// the state's Checkpoint returned earlier once nothing else can read it:
// no restore is running, no store append is reading it, and either a
// newer epoch replaced it as the last good one or the store holds its
// epoch. The state may write into the token's memory from then on. A
// state wrapped in a type that does not forward the method is never
// handed anything back.
type tokenRecycler interface {
	RecycleToken(token any)
}

// wireState is what a StateSet part is: state that is its own wire
// bytes. session.Table, maglev.Balancer and firewall.Stateful are the
// implementations. Like a Stateful, a part takes its own lock.
type wireState interface {
	// CheckpointSize reports the bytes AppendCheckpoint would write now;
	// the set sizes one buffer for all parts from it.
	CheckpointSize() int
	// AppendCheckpoint appends the state's wire form to buf, captured
	// under the state's own lock, and returns the extended buffer.
	AppendCheckpoint(buf []byte) ([]byte, error)
	// CheckCheckpoint reports whether Restore would accept data, without
	// touching the live state: it accepts exactly what Restore does.
	CheckCheckpoint(data []byte) error
	// Restore replaces the live state with data's contents; a rejected
	// data leaves it as it was. data is only read, and not kept: the set
	// writes the epoch buffer again once the runtime hands it back.
	Restore(data []byte) error
	// Reset reinitializes to clean boot state.
	Reset()
}

// StateSet composes named wire-form parts into one Stateful, so a
// pipeline domain can checkpoint its firewall, balancer, and session
// table as a unit. The set's token holds its own wire form — a u32 part
// count, then each part's bytes behind a u32 length — written once into
// one buffer per epoch; errors carry the part name.
type StateSet struct {
	names []string
	parts []wireState

	// spare is the one token handed back by RecycleToken and not yet taken
	// by a Checkpoint. mu guards only the field: a superseded generation
	// may be capturing while the current one hands a token back.
	mu    sync.Mutex
	spare *setToken
}

// setToken is a StateSet restore token: the set's wire form. It is a
// pointer so that handing it through the Stateful interface, and back,
// allocates nothing.
type setToken struct {
	wire []byte
}

// NewStateSet returns an empty set; Add parts in a fixed order.
func NewStateSet() *StateSet { return &StateSet{} }

// Add appends a named part and returns the set for chaining.
func (s *StateSet) Add(name string, part wireState) *StateSet {
	s.names = append(s.names, name)
	s.parts = append(s.parts, part)
	return s
}

// Checkpoint captures every part into one buffer sized for all of them:
// each appends its bytes behind a length prefix that is patched in once
// the part has written. The buffer is the token RecycleToken last handed
// back when there is one and it is large enough, and freshly
// allocated otherwise — so a caller that never hands a token back gets a
// new buffer every call. The engine is unused.
func (s *StateSet) Checkpoint(*checkpoint.Engine) (any, error) {
	size := 4
	for _, p := range s.parts {
		size += 4 + p.CheckpointSize()
	}
	s.mu.Lock()
	tok := s.spare
	s.spare = nil
	s.mu.Unlock()
	if tok == nil {
		tok = &setToken{}
	}
	if cap(tok.wire) < size {
		// Every buffer the set makes leaves an eighth of headroom. A
		// table that gains a flow per epoch would otherwise reallocate
		// every epoch, and a worker's tables still grow a little between
		// its first two epochs: an exact first buffer was outgrown by the
		// second, after the warm-up's last collection, and stayed resident
		// as garbage (≈ 1 MB a worker on mem-durable).
		tok.wire = make([]byte, 0, size+size/8)
	}
	buf := binary.LittleEndian.AppendUint32(tok.wire[:0], uint32(len(s.parts)))
	for i, p := range s.parts {
		at := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		var err error
		if buf, err = p.AppendCheckpoint(buf); err != nil {
			s.RecycleToken(tok) // never published: still ours alone
			return nil, fmt.Errorf("state %s: %w", s.names[i], err)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	tok.wire = buf
	return tok, nil
}

// RecycleToken takes back a token Checkpoint returned, once its caller
// knows nothing reads it any more (see tokenRecycler): its buffer becomes
// the spare the next Checkpoint writes into. The set keeps one spare, the
// larger when offered a second.
func (s *StateSet) RecycleToken(token any) {
	tok, ok := token.(*setToken)
	if !ok {
		return
	}
	s.mu.Lock()
	if s.spare == nil || cap(tok.wire) > cap(s.spare.wire) {
		s.spare = tok
	}
	s.mu.Unlock()
}

// eachPart validates the set's framing and calls fn with each
// part's bytes (subslices of data, not copies).
func (s *StateSet) eachPart(data []byte, fn func(i int, part []byte) error) error {
	if len(data) < 4 {
		return fmt.Errorf("domain: state-set token truncated")
	}
	if n := int(binary.LittleEndian.Uint32(data)); n != len(s.parts) {
		return fmt.Errorf("domain: state-set token has %d parts, set has %d", n, len(s.parts))
	}
	data = data[4:]
	for i := range s.parts {
		if len(data) < 4 {
			return fmt.Errorf("domain: state-set token truncated at %s", s.names[i])
		}
		partLen := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if len(data) < partLen {
			return fmt.Errorf("domain: state-set token truncated at %s", s.names[i])
		}
		if fn != nil {
			if err := fn(i, data[:partLen]); err != nil {
				return err
			}
		}
		data = data[partLen:]
	}
	if len(data) != 0 {
		return fmt.Errorf("domain: state-set token has %d trailing bytes", len(data))
	}
	return nil
}

// Restore hands each part its bytes of a Checkpoint token, after
// checking the whole frame: a token cut short restores nothing.
func (s *StateSet) Restore(token any) error {
	tok, ok := token.(*setToken)
	if !ok {
		return fmt.Errorf("domain: state-set token has wrong shape (%T)", token)
	}
	if err := s.eachPart(tok.wire, nil); err != nil {
		return err
	}
	return s.eachPart(tok.wire, func(i int, part []byte) error {
		if err := s.parts[i].Restore(part); err != nil {
			return fmt.Errorf("state %s: %w", s.names[i], err)
		}
		return nil
	})
}

// Reset returns every part to its boot state. A restart never resets (it
// restores); the method stays for wrappers that decorate a set.
func (s *StateSet) Reset() {
	for _, p := range s.parts {
		p.Reset()
	}
}

// EncodeToken implements TokenCodec: a Checkpoint token already holds
// its wire form, returned without copying.
func (s *StateSet) EncodeToken(token any) ([]byte, error) {
	tok, ok := token.(*setToken)
	if !ok {
		return nil, fmt.Errorf("domain: state-set token has wrong shape (%T)", token)
	}
	return tok.wire, nil
}

// DecodeToken implements TokenCodec: validate the framing and every
// part's bytes, and return a token over data itself.
func (s *StateSet) DecodeToken(data []byte) (any, error) {
	err := s.eachPart(data, func(i int, part []byte) error {
		if err := s.parts[i].CheckCheckpoint(part); err != nil {
			return fmt.Errorf("state %s: decode: %w", s.names[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &setToken{wire: data}, nil
}

// ckptToken is one published checkpoint: the adapter's opaque token plus
// the serving epoch and wall time it was taken at. seq is the durable
// sequence number (0 when persistence is off, and for a RAM seed, which
// Spawn takes at epoch 0). A nil token is a durable
// reference: the epoch is the store's newest record for the domain, seq,
// and a restore reads it back through LastEpoch. A record is written only
// while nobody else can read it: before publish, under gmu while its
// generation is current (makeDurable), and as a spare once the runtime
// hands its buffer back (see takeCheckpoint).
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
	// wake is the monitor's call to an idle serving goroutine whose epoch
	// is due (idleEpoch); one slot, so a second call is absorbed.
	wake chan struct{}

	// last is the newest good checkpoint; published by the serving
	// goroutine (under the domain's gmu, see publish), consumed by the
	// monitor's restore. Never holds a half-built snapshot: a fault
	// during traversal leaves it untouched.
	last atomic.Pointer[ckptToken]
	// lastAttempt (unix nanos) paces epochs across both trigger paths
	// (the monitor's idle wake and the post-invocation dueness check).
	lastAttempt atomic.Int64

	// Durability (nil/zero when Policy.Persist is unset): every published
	// epoch is encoded through codec and appended to persist under a
	// per-domain monotonic sequence, and Spawn seeds last from the store's
	// newest durable epoch when it holds one, so a process restart
	// restores where the dead process stopped.
	persist Persister
	codec   TokenCodec
	seq     atomic.Uint64

	// recycler takes tokens back (nil when the state does not offer it);
	// see takeCheckpoint for when. spareRec is the publication record that
	// went out of use with the last buffer handed back, rewritten by the
	// next epoch instead of a new one.
	recycler tokenRecycler
	spareRec atomic.Pointer[ckptToken]

	taken         telemetry.Counter
	failed        telemetry.Counter
	restores      telemetry.Counter
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

// idleEpoch wakes the serving goroutine, on the monitor, when an epoch is
// due and the current generation is not inside an invocation (a busy one
// checks dueness itself after it; a spare wake is harmless, the idle path
// checks again). It returns when to look next, zero for never.
func (d *Domain[T]) idleEpoch(now time.Time) time.Time {
	ck := d.ck
	if ck == nil || d.State() != StateLive {
		return time.Time{}
	}
	if at := ck.lastAttempt.Load() + int64(ck.every); at > now.UnixNano() {
		return time.Unix(0, at)
	}
	if d.busy.Load() != d.epoch.Load() {
		select {
		case ck.wake <- struct{}{}:
		default:
		}
	}
	return now.Add(ck.every)
}

// takeCheckpoint runs one snapshot epoch on the serving goroutine. A
// panic inside the traversal (or the adapter) is a domain fault exactly
// like a handler panic: the error propagates to the supervisor, the
// half-built snapshot is discarded unpublished, and the previous good
// token keeps standing. A checkpoint *error* is softer — the domain keeps
// serving on its last good epoch and the failure is only counted. So is
// a capture that finished after its generation was superseded: the
// monitor may already have chosen what the next generation restores.
//
// Buffers go back to the state (tokenRecycler) when the runtime knows
// nobody else reads them. Two hand-backs, both made only by a generation
// that was current when it took the buffer out of last — which rules out
// a restore, since those run on the monitor strictly between one
// generation's exit or supersession and the next one's start:
//
//   - the epoch this one replaced, if it was still a buffer (no store, or
//     its persist failed), unless a store is configured and an earlier
//     generation published it: that generation may have been superseded
//     inside its own PersistEpoch call, still reading the bytes;
//   - this epoch itself, once the store holds it (makeDurable): its record
//     then refers to the store's record instead, so a durable domain
//     rotates one buffer.
//
// The replaced epoch's record goes out of use under the first rule
// (whether it held a buffer or referred to the store), and the next epoch
// rewrites it: records rotate with their buffers, two of them. Anything
// else — a superseded generation's buffer or record, a failed persist's
// after a restart, Spawn's RAM seed under a store — is left to the
// collector.
func (d *Domain[T]) takeCheckpoint(epoch uint64) (fault error) {
	ck := d.ck
	start := d.now()
	ck.lastAttempt.Store(start.UnixNano())
	defer func() {
		if p := recover(); p != nil {
			d.st.crashes.Add(1)
			ck.failed.Add(1)
			d.rec.Record(d.actor, telemetry.EvPanic, d.faultStreak.Load()+1)
			fault = &faultError{domain: d.name, what: "checkpoint panic", val: p}
		}
	}()
	token, err := ck.state.Checkpoint(ck.engine)
	if err != nil {
		ck.failed.Add(1)
		return nil
	}
	lat := d.now().Sub(start)
	tok := ck.spareRec.Swap(nil)
	if tok == nil {
		tok = new(ckptToken)
	}
	*tok = ckptToken{token: token, epoch: epoch, at: start}
	old, ok := d.publish(tok)
	if !ok {
		ck.failed.Add(1)
		return nil
	}
	ck.taken.Add(1)
	ck.ckptLat.Observe(lat)
	d.rec.Record(d.actor, telemetry.EvCheckpoint, uint64(lat))
	if old != nil && (ck.persist == nil || old.epoch == epoch) {
		if old.token != nil {
			ck.recycle(old.token)
		}
		ck.spareRec.Store(old)
	}
	// Still inside the fault guard: a panic in the codec or the store is a
	// domain fault, but the RAM epoch above already stands — the restart
	// restores it. A persist *error* is softer yet: the domain keeps
	// serving on the RAM epoch, only durability lags (counted).
	if ck.persist != nil && d.persistEpoch(tok) && d.makeDurable(tok) {
		ck.recycle(token)
	}
	return nil
}

// recycle hands token back to the state, if it takes tokens back.
func (c *ckptState) recycle(token any) {
	if c.recycler != nil {
		c.recycler.RecycleToken(token)
	}
}

// publish makes tok the last good epoch and returns the one it replaced,
// unless tok's generation has been superseded: gmu is the lock supersede
// takes, so a generation that is still current here cannot have a restore
// reading last beside it, and one that is not leaves last alone.
func (d *Domain[T]) publish(tok *ckptToken) (old *ckptToken, ok bool) {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	if d.epoch.Load() != tok.epoch {
		return nil, false
	}
	if d.ck.persist != nil {
		tok.seq = d.ck.seq.Add(1)
	}
	return d.ck.last.Swap(tok), true
}

// persistEpoch encodes one published epoch and appends it to the policy
// store, on the serving goroutine (the checkpoint already paid the
// traversal; the append is the cheap half, and ordering per domain is
// free on one goroutine). It reports whether the store now holds the
// epoch.
func (d *Domain[T]) persistEpoch(tok *ckptToken) bool {
	ck := d.ck
	start := d.now()
	payload, err := ck.codec.EncodeToken(tok.token)
	if err == nil {
		err = ck.persist.PersistEpoch(d.name, tok.seq, payload)
	}
	if err != nil {
		ck.persistFailed.Add(1)
		return false
	}
	ck.persisted.Add(1)
	ck.persistLat.Observe(d.now().Sub(start))
	return true
}

// makeDurable turns tok, still the last good epoch, into a reference to
// the store's record of it, and reports whether it did: only while tok's
// generation is current, under gmu as publish, so no restore is reading
// tok — and once it has, nothing can reach tok's buffer.
func (d *Domain[T]) makeDurable(tok *ckptToken) bool {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	if d.epoch.Load() != tok.epoch || d.ck.last.Load() != tok {
		return false
	}
	tok.token = nil
	return true
}

// durableToken reads the store's newest epoch for the domain and decodes
// it into a token the state can restore. A nonzero want is the epoch a
// durable reference names, and anything else is an error.
func (d *Domain[T]) durableToken(want uint64) (token any, seq uint64, ok bool, err error) {
	payload, seq, ok, err := d.ck.persist.LastEpoch(d.name)
	if err != nil {
		return nil, 0, false, fmt.Errorf("load durable epoch: %w", err)
	}
	if want != 0 && (!ok || seq != want) {
		return nil, 0, false, fmt.Errorf("the store's newest epoch is %d, not the durable epoch %d", seq, want)
	}
	if !ok {
		return nil, 0, false, nil
	}
	if token, err = d.ck.codec.DecodeToken(payload); err != nil {
		return nil, 0, false, fmt.Errorf("decode durable epoch %d: %w", seq, err)
	}
	return token, seq, true, nil
}

// restore applies token to the state, timed and counted.
func (d *Domain[T]) restore(token any) error {
	start := d.now()
	if err := d.ck.state.Restore(token); err != nil {
		return err
	}
	lat := d.now().Sub(start)
	d.ck.restores.Add(1)
	d.ck.restoreLat.Observe(lat)
	d.rec.Record(d.actor, telemetry.EvRestore, uint64(lat))
	return nil
}

// seed gives the domain its first good epoch at Spawn, before it serves,
// so every restart has one to restore: when Policy.Persist's store holds
// an epoch for the domain, a reference to the newest, restored at once
// with the sequence continued; otherwise one capture of the state as it
// was built, a RAM epoch (epoch 0, seq 0) never given to the store. The
// seed is not counted, timed or recorded as a taken checkpoint. Errors,
// a capture's panic included, are Spawn errors: a misconfiguration, not
// a fault to retry through.
func (d *Domain[T]) seed() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("seed checkpoint panic: %v", p)
		}
		if err != nil {
			err = fmt.Errorf("domain %s: %w", d.name, err)
		}
	}()
	ck := d.ck
	if ck.persist != nil {
		token, seq, ok, err := d.durableToken(0)
		if err != nil {
			return err
		}
		if ok {
			ck.seq.Store(seq)
			ck.last.Store(&ckptToken{seq: seq, at: d.now()})
			if err := d.restore(token); err != nil {
				return fmt.Errorf("restore durable epoch %d: %w", seq, err)
			}
			return nil
		}
	}
	token, err := ck.state.Checkpoint(ck.engine)
	if err != nil {
		return fmt.Errorf("seed checkpoint: %w", err)
	}
	ck.last.Store(&ckptToken{token: token, at: d.now()})
	return nil
}

// restoreLast is the state half of a restart (recoverState): the state
// gets back the last good epoch, the seed until a periodic epoch
// replaces it — read back from the store when last is a durable
// reference, which must still be the store's newest epoch. A restore
// error, a failed read included, is a fault (the streak grows toward
// stop). The generation whose fault or supersession scheduled the
// restart can no longer publish, and the next starts only after this
// returns, so the token read here is not replaced or handed back
// meanwhile (TestNoPublishOrHandBackDuringRestore).
func (d *Domain[T]) restoreLast() error {
	ck := d.ck
	last := ck.last.Load()
	token := last.token
	var err error
	if token == nil {
		token, _, _, err = d.durableToken(last.seq)
	}
	if err == nil {
		err = d.restore(token)
	}
	if err != nil {
		ck.failed.Add(1)
		return fmt.Errorf("domain %s: restore checkpoint: %w", d.name, err)
	}
	return nil
}
