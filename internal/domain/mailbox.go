package domain

import (
	"errors"
	"sync/atomic"

	"repro/internal/linear"
	"repro/internal/telemetry"
)

// Errors returned by mailbox operations.
var (
	// ErrMailboxClosed reports a send to (or receive from a drained)
	// closed mailbox.
	ErrMailboxClosed = errors.New("domain: mailbox closed")
)

// MailboxStats holds a mailbox's counters — telemetry cells updated
// atomically so supervisors and metric scrapes can read them while
// traffic flows.
type MailboxStats struct {
	Sends telemetry.Counter // payloads successfully enqueued
	Recvs telemetry.Counter // payloads successfully dequeued
	Drops telemetry.Counter // payloads destroyed by the mailbox (full or closed)
}

// Mailbox is the zero-copy channel between protection-domain goroutines:
// a bounded queue of linear.Owned payloads. A send is an ownership move —
// the sender's handle is invalidated before the payload is enqueued, so
// no window exists in which both sides can touch the value — mirroring
// the rref ownership-transfer calls of the synchronous SFI layer
// (sfi.CallMove) in an asynchronous setting.
//
// The move is unconditional: every send consumes the caller's handle,
// success or not. When the mailbox cannot accept the payload (a send
// after Close), it destroys the payload through the release hook instead
// of handing it back. This keeps the ownership story one-directional —
// after Send returns, the sender provably has nothing — which is the
// invariant the fuzz harness checks.
type Mailbox[T any] struct {
	ch      chan linear.Owned[T]
	done    chan struct{}
	closed  atomic.Bool
	drained atomic.Bool // set by Drain: the queue has no receiver left
	release func(T)

	// rec, when non-nil, receives a flight-recorder event per payload
	// movement (send, receive, tail-drop). Set once via Observe before
	// traffic starts.
	rec   *telemetry.Recorder
	actor telemetry.ActorID

	// clock is the optional stage clock (SetStageClock): per-payload
	// hooks bracketing the queueing delay across the domain boundary.
	// An atomic pointer so attaching after Spawn cannot race the
	// serving goroutine's receives.
	clock atomic.Pointer[stageClock[T]]

	// Stats is exported for the management plane.
	Stats MailboxStats
}

// stageClock carries the mailbox's trace-stamping hooks. onSend runs
// while the sender still owns the payload, immediately before enqueue;
// onRecv runs as the receiver dequeues. Either may be nil.
type stageClock[T any] struct {
	onSend func(T)
	onRecv func(T)
}

// SetStageClock attaches per-payload tracing hooks: onSend fires just
// before a payload is enqueued (sender's goroutine, payload borrowed
// under the linear cell), onRecv just after it is dequeued (receiver's
// goroutine). The sampled packet tracer uses these to stamp the
// mailbox-send/mailbox-recv trace stages; the segment between them is
// the batch's queueing delay across the protection-domain boundary.
// Safe to call while the mailbox carries traffic; nil hooks detach.
func (m *Mailbox[T]) SetStageClock(onSend, onRecv func(T)) {
	if onSend == nil && onRecv == nil {
		m.clock.Store(nil)
		return
	}
	m.clock.Store(&stageClock[T]{onSend: onSend, onRecv: onRecv})
}

// clockSend runs the send hook on a payload the caller still owns.
func (m *Mailbox[T]) clockSend(p linear.Owned[T]) {
	if c := m.clock.Load(); c != nil && c.onSend != nil {
		_ = p.With(func(v T) { c.onSend(v) })
	}
}

// Observe attaches a flight recorder to the mailbox: every send,
// receive, and drop is recorded under actor. Call before the mailbox
// carries traffic; the zero state records nothing.
func (m *Mailbox[T]) Observe(rec *telemetry.Recorder, actor telemetry.ActorID) {
	m.rec = rec
	m.actor = actor
}

// noteSend and noteRecv bump the counters and drop a flight-recorder
// event carrying the queue depth after the move (both no-ops on the
// recorder side when none is attached).
func (m *Mailbox[T]) noteSend() {
	m.Stats.Sends.Add(1)
	m.rec.Record(m.actor, telemetry.EvSend, uint64(len(m.ch)))
}

func (m *Mailbox[T]) noteRecv() {
	m.Stats.Recvs.Add(1)
	m.rec.Record(m.actor, telemetry.EvRecv, uint64(len(m.ch)))
}

// received accounts one successful dequeue: counters, flight-recorder
// event, and the stage clock's recv hook. Every dequeue site funnels
// through it so the hooks can never miss a delivery path.
func (m *Mailbox[T]) received(p linear.Owned[T]) linear.Owned[T] {
	m.noteRecv()
	if c := m.clock.Load(); c != nil && c.onRecv != nil {
		_ = p.With(func(v T) { c.onRecv(v) })
	}
	return p
}

// NewMailbox creates a mailbox holding at most capacity payloads
// (minimum 1). release, when non-nil, is invoked for every payload the
// mailbox destroys — dropped sends and messages left queued at Drain —
// so resources inside payloads (pool buffers) can be reclaimed.
func NewMailbox[T any](capacity int, release func(T)) *Mailbox[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Mailbox[T]{
		ch:      make(chan linear.Owned[T], capacity),
		done:    make(chan struct{}),
		release: release,
	}
}

// Depth reports the number of queued payloads.
func (m *Mailbox[T]) Depth() int { return len(m.ch) }

// destroy releases a payload the mailbox owns and will not deliver.
func (m *Mailbox[T]) destroy(p linear.Owned[T]) {
	m.Stats.Drops.Add(1)
	m.rec.Record(m.actor, telemetry.EvDrop, uint64(len(m.ch)))
	if m.release != nil {
		if v, err := p.Into(); err == nil {
			m.release(v)
			return
		}
	}
	_ = p.Drop()
}

// Send moves v into the mailbox, blocking while it is full. The caller's
// handle dies before enqueue. A send on a closed mailbox destroys the
// payload and returns ErrMailboxClosed.
func (m *Mailbox[T]) Send(v linear.Owned[T]) error {
	moved, err := v.Move() // sender loses access here, unconditionally
	if err != nil {
		return err
	}
	if m.closed.Load() {
		m.destroy(moved)
		return ErrMailboxClosed
	}
	// The stage clock's send hook runs here, while this goroutine still
	// owns the payload — after enqueue the receiver may already have it.
	m.clockSend(moved)
	select {
	case m.ch <- moved:
		m.enqueued()
		return nil
	case <-m.done:
		m.destroy(moved)
		return ErrMailboxClosed
	}
}

// enqueued accounts a payload the queue took. A send that passed the
// closed check can still land after Drain emptied the queue — select picks
// at random between the room and a closed done — and nothing receives it
// then, so it drains again.
func (m *Mailbox[T]) enqueued() {
	m.noteSend()
	if m.drained.Load() {
		m.Drain()
	}
}

// recv dequeues the next payload, blocking until one arrives or a signal
// comes. quit aborts an idle wait with errSuperseded so a retired serving
// generation stops competing for payloads. wake, the supervisor monitor's
// call for a checkpoint epoch (ckptState.wake), returns errCheckpointDue:
// a mailbox-quiescent instant to snapshot at. Close returns
// ErrMailboxClosed once the mailbox is drained. Queued payloads win over
// all three signals, so a receiver drains the backlog before it sees a
// close, checkpointing never delays delivery, and a superseded receiver
// may take one last payload, which its caller must account for.
func (m *Mailbox[T]) recv(quit <-chan struct{}, wake chan struct{}) (linear.Owned[T], error) {
	if p, ok := m.tryRecv(); ok {
		return p, nil
	}
	var err error
	select {
	case p := <-m.ch:
		return m.received(p), nil
	case <-wake:
		err = errCheckpointDue
	case <-quit:
		err = errSuperseded
	case <-m.done:
		err = ErrMailboxClosed
	}
	// A payload may have become ready with the signal, and select picks
	// between ready cases at random: look once more. A wake a payload
	// beats goes back for the next idle instant.
	if p, ok := m.tryRecv(); ok {
		if err == errCheckpointDue {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
		return p, nil
	}
	return linear.Owned[T]{}, err
}

// tryRecv dequeues without blocking; ok=false means the queue was empty.
func (m *Mailbox[T]) tryRecv() (linear.Owned[T], bool) {
	select {
	case p := <-m.ch:
		return m.received(p), true
	default:
		return linear.Owned[T]{}, false
	}
}

// Close stops the mailbox: subsequent sends fail (destroying their
// payloads); queued payloads remain receivable. Closing twice is a no-op.
func (m *Mailbox[T]) Close() {
	if m.closed.CompareAndSwap(false, true) {
		close(m.done)
	}
}

// Drain closes the mailbox and destroys every queued payload through the
// release hook, and every payload a racing send queues after it.
// Supervisors call it when retiring a domain for good, so pool accounting
// balances even for work that was never processed. It returns the number
// of payloads it destroyed itself.
func (m *Mailbox[T]) Drain() int {
	m.Close()
	m.drained.Store(true)
	n := 0
	for {
		select {
		case p := <-m.ch:
			m.destroy(p)
			n++
		default:
			return n
		}
	}
}
