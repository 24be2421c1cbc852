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
// A state that streams (StateSet) captures every epoch straight into
// where it is kept: through its domain's one chunk into the policy's
// store when it takes chunks, and with no store into the open buffer of
// an in-memory sink of two. One holder of the stream at a time, and a
// commit only while its generation is current: those two rules are all
// the ownership the epoch bytes need (DESIGN.md, "Who owns an epoch
// buffer").

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
	// not leak into it) and never written again: the runtime keeps it as
	// the last good epoch while a restore or the store's append may be
	// reading the same memory.
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
// because a token's bytes are never written again: from the moment
// Checkpoint returns them, the domain (its last good epoch), the store
// (for the one PersistEpoch call that appends them) and any restore in
// progress share one buffer that nobody writes. The bytes DecodeToken is
// given are the caller's: LastEpoch's fresh slice, which nothing else
// holds.
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

// epochStreamer is the optional streaming half of a Persister, found by
// type assertion at Spawn (statestore.Store has it).
// With it, and a state whose capture streams (StateSet), a durable domain
// writes its epoch into the store a chunk at a time and keeps no image of
// it: the store lock is held for one chunk, never for a capture. A
// Persister wrapped in a type that does not forward these methods takes
// the buffer path.
type epochStreamer interface {
	// AppendChunk appends chunk index of the named domain's epoch seq,
	// not its last; index 0 opens the stream. chunk is borrowed for the
	// call.
	AppendChunk(name string, seq uint64, index int, chunk []byte) error
	// CommitEpoch appends the last chunk, index chunks after the first,
	// which makes epoch seq the domain's newest. It does not sync.
	CommitEpoch(name string, seq uint64, index int, chunk []byte) error
	// SyncEpoch makes the domain's newest committed epoch durable.
	SyncEpoch(name string) error
	// AbortEpoch ends the domain's open stream of seq uncommitted.
	AbortEpoch(name string, seq uint64)
}

// streamCapture is the state half of a streamed epoch, found by type
// assertion at Spawn: *StateSet has it.
type streamCapture interface {
	checkpointSize() int
	capture(buf []byte, st *epochStream) ([]byte, error)
}

// epochChunkSize is the chunk a domain streams its epochs through: the
// only epoch memory a durable domain keeps.
const epochChunkSize = 64 << 10

// ramSink is the epoch store of a domain whose state streams and whose
// policy has no store: an epoch is captured into open, and its commit
// swaps the two buffers, so the committed one is what a restart restores
// and the one it replaced is the next epoch's open buffer. It takes no
// lock. Only the stream's one holder (ckptState.stream) writes open, and
// the swap runs under gmu while the holder's generation is current, so
// no commit runs beside a restore, which reads committed between two
// generations. A superseded holder writes only open.
type ramSink struct {
	open, committed setToken
}

// reserve readies the open buffer for an epoch of size bytes, before
// the stream opens: one too small is replaced by one of size plus an
// eighth, so a warm epoch allocates nothing and a state that grows a
// little never regrows the buffer mid-stream.
func (s *ramSink) reserve(size int) {
	if cap(s.open.wire) < size {
		s.open.wire = make([]byte, 0, size+size/8)
	}
}

// epochStream is a streaming domain's one chunk and where its full ones
// go: made at Spawn, held by one capture at a time (ckptState.stream). A
// RAM domain's has neither: its capture writes into the sink.
type epochStream struct {
	store epochStreamer
	name  string
	chunk []byte
	flush func([]byte) ([]byte, error) // appendChunk, bound once
	// The epoch being streamed: its seq, the chunks and bytes the store
	// has of it, and whether an append failed.
	seq      uint64
	index    int
	written  int
	storeErr bool
}

// flushed reports the bytes st's full chunks handed the store so far:
// none when there is no stream.
func (st *epochStream) flushed() int {
	if st == nil {
		return 0
	}
	return st.written
}

// appendChunk hands one full chunk to the store and returns it emptied,
// for the capture to go on in.
func (st *epochStream) appendChunk(chunk []byte) ([]byte, error) {
	if err := st.store.AppendChunk(st.name, st.seq, st.index, chunk); err != nil {
		st.storeErr = true
		return nil, err
	}
	st.index++
	st.written += len(chunk)
	return chunk[:0], nil
}

// wireState is what a StateSet part is: state that is its own wire
// bytes. session.Table, maglev.Balancer and firewall.Stateful are the
// implementations. Like a Stateful, a part takes its own lock.
type wireState interface {
	// CheckpointSize reports the bytes StreamCheckpoint would write now:
	// the set sizes a buffer from it, and writes it as the part's length.
	CheckpointSize() int
	// StreamCheckpoint appends the state's wire form to buf, captured
	// under the state's own lock, and returns the extended buffer. A nil
	// flush grows buf. Otherwise buf is a chunk whose capacity is all the
	// room there is: before an entry that would not fit, the part hands
	// the full chunk to flush and goes on in the one flush returns. A
	// StateSet domain's epoch streams this way.
	StreamCheckpoint(buf []byte, flush func([]byte) ([]byte, error)) ([]byte, error)
	// CheckCheckpoint reports whether Restore would accept data, without
	// touching the live state: it accepts exactly what Restore does.
	CheckCheckpoint(data []byte) error
	// Restore replaces the live state with data's contents; a rejected
	// data leaves it as it was. data is only read, and not kept: a RAM
	// sink writes its buffer again two epochs later.
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

// Checkpoint captures every part (capture) into a new buffer sized for
// all of them, plus an eighth: a domain's seed is a RAM sink's first
// committed epoch, and its buffer the open one of the epoch after next,
// which the headroom lets a state that grew a little meanwhile still
// fit. The engine is unused.
func (s *StateSet) Checkpoint(*checkpoint.Engine) (any, error) {
	size := s.checkpointSize()
	buf, err := s.capture(make([]byte, 0, size+size/8), nil)
	if err != nil {
		return nil, err
	}
	return &setToken{wire: buf}, nil
}

// checkpointSize reports the bytes a capture would write now: the part
// count, and each part behind its length.
func (s *StateSet) checkpointSize() int {
	size := 4
	for _, p := range s.parts {
		size += 4 + p.CheckpointSize()
	}
	return size
}

// capture writes the set's wire form into buf: the part count, then
// each part behind its length. With st set, buf is st's chunk and goes
// to the store whenever the next entry would not fit; without, buf
// grows. A part's length goes out before the part, so it is the part's
// CheckpointSize, and a part that then writes another number of bytes
// fails the capture: its state moved between the two calls.
func (s *StateSet) capture(buf []byte, st *epochStream) ([]byte, error) {
	var flush func([]byte) ([]byte, error)
	if st != nil {
		flush = st.flush
	}
	buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(s.parts)))
	for i, p := range s.parts {
		size := p.CheckpointSize()
		var err error
		if flush != nil && len(buf)+4 > cap(buf) {
			if buf, err = flush(buf); err != nil {
				return nil, err
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
		from := st.flushed() + len(buf)
		if buf, err = p.StreamCheckpoint(buf, flush); err != nil {
			return nil, fmt.Errorf("state %s: %w", s.names[i], err)
		}
		if n := st.flushed() + len(buf) - from; n != size {
			return nil, fmt.Errorf("state %s: wrote %d bytes of a %d-byte checkpoint", s.names[i], n, size)
		}
	}
	return buf, nil
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
// the serving epoch and wall time it was taken at. seq is the epoch's
// sequence number in its store (0 for a capture on the buffer path with
// no store, and for a RAM seed, which Spawn takes at epoch 0). A nil token
// names the newest epoch committed to the domain's stream: its RAM sink's,
// or the store's record seq, which a restore reads back through
// LastEpoch. A record is written only while nobody else can read it:
// before publish, under gmu while its generation is current
// (makeDurable), and as the spare once a newer one replaced it (retire).
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

	// Streaming (nil when the state cannot stream, or the store cannot):
	// the state's streaming capture, and the domain's stream, taken by a
	// capture and put back after it (a superseded generation may still be
	// streaming when the next one's epoch is due; that epoch takes the
	// buffer path). sink is where a capture writes when there is no store.
	streamer streamCapture
	stream   atomic.Pointer[epochStream]
	sink     *ramSink

	// spareRec is a publication record out of use (retire), rewritten by
	// the next epoch instead of a new one.
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
// A domain that streams (streamEpoch) writes its epoch through its one
// chunk into its store, or into its RAM sink, and publishes a reference
// to it. When the stream fails, or a superseded generation still holds
// it, the epoch takes the buffer path below, as does every epoch of a
// state that does not stream: a capture into a new buffer, published as
// a RAM epoch, and persisted unless the store failed the stream. Nothing
// is written into a published buffer again; a replaced one is garbage.
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
	persist := ck.persist != nil
	if st := ck.stream.Swap(nil); st != nil {
		var done bool
		if done, persist = d.streamEpoch(st, epoch, start); done {
			return nil
		}
	}
	token, err := ck.state.Checkpoint(ck.engine)
	if err != nil {
		ck.failed.Add(1)
		return nil
	}
	lat := d.now().Sub(start)
	tok := ck.record()
	*tok = ckptToken{token: token, epoch: epoch, at: start}
	old, ok := d.publish(tok)
	if !ok {
		ck.failed.Add(1)
		return nil
	}
	d.taken(lat)
	ck.retire(old, epoch)
	// Still inside the fault guard: a panic in the codec or the store is a
	// domain fault, but the RAM epoch above already stands — the restart
	// restores it. A persist *error* is softer yet: the domain keeps
	// serving on the RAM epoch, only durability lags (counted).
	if persist && d.persistEpoch(tok) {
		d.makeDurable(tok)
	}
	return nil
}

// record returns a publication record to fill: the spare, or a new one.
func (c *ckptState) record() *ckptToken {
	if tok := c.spareRec.Swap(nil); tok != nil {
		return tok
	}
	return new(ckptToken)
}

// retire keeps old, the record that generation epoch's publish replaced,
// as the spare when nobody else can read it, and drops its token: a
// restore reads a record only between generations, and after its own
// publish a generation reads its record again only to persist it. So old
// is free when this generation published it, or when there is no store
// to persist to.
func (c *ckptState) retire(old *ckptToken, epoch uint64) {
	if old != nil && (c.persist == nil || old.epoch == epoch) {
		old.token = nil
		c.spareRec.Store(old)
	}
}

// taken counts a published epoch, captured in lat.
func (d *Domain[T]) taken(lat time.Duration) {
	d.ck.taken.Add(1)
	d.ck.ckptLat.Observe(lat)
	d.rec.Record(d.actor, telemetry.EvCheckpoint, uint64(lat))
}

// streamEpoch runs one epoch of a domain that streams, holding its stream
// st: the seq is taken as the stream opens, and the state's capture hands
// the store every full chunk, the last going in as the epoch's commit;
// with no store it writes the whole epoch into the RAM sink's open
// buffer, sized first, and the commit swaps the sink's buffers. The
// commit runs under gmu, only while the generation is current, and
// publishes the reference (a nil token) in the same critical section, so
// a superseded generation never commits. A store's fsync follows, outside
// gmu, and only then is the epoch counted as taken (and as persisted). It
// reports whether the epoch is done with: it stands as the last good one,
// or the generation was superseded (a failed epoch). When not, the caller
// captures into RAM instead, and persist says whether that epoch goes to
// the store whole: not when the store failed this one. A store's stream
// that does not commit is aborted, and st goes back to the domain either
// way.
func (d *Domain[T]) streamEpoch(st *epochStream, epoch uint64, start time.Time) (done, persist bool) {
	ck, sink := d.ck, d.ck.sink
	st.seq, st.index, st.written, st.storeErr = ck.seq.Add(1), 0, 0, false
	committed := false
	defer func() {
		if !committed && sink == nil {
			st.store.AbortEpoch(d.name, st.seq)
		}
		ck.stream.Store(st)
	}()
	var tail []byte
	var err error
	if sink != nil {
		sink.reserve(ck.streamer.checkpointSize())
		if tail, err = ck.streamer.capture(sink.open.wire, nil); err == nil {
			sink.open.wire = tail
		}
	} else {
		tail, err = ck.streamer.capture(st.chunk, st)
	}
	if err != nil {
		if st.storeErr {
			ck.persistFailed.Add(1)
			return false, false
		}
		return false, ck.persist != nil
	}
	tok := ck.record()
	*tok = ckptToken{epoch: epoch, seq: st.seq, at: start}
	var old *ckptToken
	d.gmu.Lock()
	current := d.epoch.Load() == epoch
	if current {
		if sink != nil {
			sink.open, sink.committed = sink.committed, sink.open
		} else {
			err = st.store.CommitEpoch(d.name, st.seq, st.index, tail)
		}
		if err == nil {
			committed = true
			old = ck.last.Swap(tok)
		}
	}
	d.gmu.Unlock()
	if !committed {
		ck.spareRec.Store(tok) // never published: still ours alone
		if !current {
			ck.failed.Add(1)
			return true, false
		}
		ck.persistFailed.Add(1)
		return false, false
	}
	committedAt := d.now()
	ck.retire(old, epoch)
	if sink != nil {
		d.taken(committedAt.Sub(start))
		return true, false
	}
	if err := st.store.SyncEpoch(d.name); err != nil {
		// The epoch's bytes may be gone from the kernel's cache as well as
		// from the disk: the caller replaces the reference with a RAM
		// epoch, which it counts.
		ck.persistFailed.Add(1)
		return false, false
	}
	d.taken(committedAt.Sub(start))
	ck.persisted.Add(1)
	ck.persistLat.Observe(d.now().Sub(committedAt))
	return true, false
}

// streamInto makes the domain stream its epochs when state can
// (streamCapture): into a RAM sink when there is no p, and into p through
// the domain's one chunk when p streams (epochStreamer).
func (c *ckptState) streamInto(p Persister, state Stateful, name string) {
	capture, ok := state.(streamCapture)
	if !ok {
		return
	}
	st := &epochStream{name: name}
	if p == nil {
		c.sink = new(ramSink)
	} else if st.store, ok = p.(epochStreamer); ok {
		st.chunk = make([]byte, 0, epochChunkSize)
		st.flush = st.appendChunk
	} else {
		return
	}
	c.streamer = capture
	c.stream.Store(st)
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
// the store's record of it: only while tok's generation is current, under
// gmu as publish, so no restore is reading tok.
func (d *Domain[T]) makeDurable(tok *ckptToken) {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	if d.epoch.Load() == tok.epoch && d.ck.last.Load() == tok {
		tok.token = nil
	}
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
// was built, a RAM epoch (epoch 0, seq 0) never given to the store: the
// RAM sink's first committed epoch when the domain has one. The seed is
// not counted, timed or recorded as a taken checkpoint. Errors,
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
	if tok, ok := token.(*setToken); ok && ck.sink != nil {
		ck.sink.committed, token = *tok, nil
	}
	ck.last.Store(&ckptToken{token: token, at: d.now()})
	return nil
}

// restoreLast is the state half of a restart (recoverState): the state
// gets back the last good epoch, the seed until a periodic epoch
// replaces it. A reference (a nil token) is the RAM sink's committed
// epoch, read in place, or else the store's, read back, which must still
// be its newest epoch. A restore error, a failed read included, is a
// fault (the streak grows toward stop). The generation whose fault or
// supersession scheduled the restart can no longer publish or commit, and
// the next starts only after this returns, so the epoch read here is not
// replaced or written meanwhile (TestNoPublishOrHandBackDuringRestore).
func (d *Domain[T]) restoreLast() error {
	ck := d.ck
	last := ck.last.Load()
	token := last.token
	var err error
	switch {
	case token != nil:
	case ck.sink != nil:
		token = &ck.sink.committed
	default:
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
