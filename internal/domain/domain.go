// Package domain provides a supervised runtime on top of the linear
// layer: long-lived goroutines ("domains"), each serving a handler,
// exchanging work through zero-copy mailboxes of linearly owned payloads.
//
// The paper's §3 recovery story — unwind to the domain entry point, clear
// the reference table, run a user recovery function — is the sfi
// package's, inside a single synchronous call; a handler that isolates
// its parts (an isolated netbricks.Pipeline) owns their protection domains
// and recovers them in its Recover hook. This package keeps a faulted
// domain alive *as a service* under sustained traffic: a Supervisor
// detects faults (handler panics and errors, caught at the domain entry
// point) and hangs (per-domain heartbeats), runs the domain's recovery
// function, and restarts that domain alone after an exponential backoff,
// until a fault streak exhausts its restart budget and the domain stops.
// A domain with checkpointed state gets its last good checkpoint back on
// every restart, and Spawn takes the first one (checkpoint.go).
// Every transition is counted in per-domain atomic stats exposed via
// Snapshot, the same contract netbricks.ShardedRunner uses for its
// workers.
//
// Ownership is the safety argument throughout, exactly as in the
// synchronous case: a payload is owned by exactly one side of a mailbox
// at any instant (a send is a move), and a payload abandoned by a
// crashing handler is reclaimed by the domain runtime at the entry point,
// so no buffer leaks across a fault.
package domain

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linear"
	"repro/internal/telemetry"
)

// ErrCrashed wraps a handler panic caught at the domain entry point.
var ErrCrashed = errors.New("domain: handler crashed")

// faultError is a fault caught at the domain entry point: a handler's
// error (err), or a panic (val) in the handler or in a checkpoint (what
// says which), which wraps ErrCrashed. Its message is built only when
// read; the supervisor never reads it.
type faultError struct {
	domain string
	what   string
	val    any
	err    error
}

func (e *faultError) Error() string {
	if e.err != nil {
		return "domain " + e.domain + ": " + e.err.Error()
	}
	return fmt.Sprintf("domain %s: %s: %v: %v", e.domain, e.what, e.val, ErrCrashed)
}

func (e *faultError) Unwrap() error {
	if e.err != nil {
		return e.err
	}
	return ErrCrashed
}

// errSuperseded is the internal signal that a serving generation has been
// retired while idle; the goroutine exits without touching domain state.
var errSuperseded = errors.New("domain: serving generation superseded")

// errCheckpointDue is the internal signal that the monitor's epoch wake
// arrived while the inbox was empty — a provably quiescent snapshot point.
var errCheckpointDue = errors.New("domain: checkpoint epoch due")

// State is a domain's lifecycle state.
type State int32

// Domain lifecycle states.
const (
	// StateLive: the domain's goroutine is serving its mailbox.
	StateLive State = iota
	// StateBackoff: the domain faulted and is waiting out its restart
	// backoff; the mailbox keeps absorbing (and, when full, shedding)
	// traffic.
	StateBackoff
	// StateStopped: the domain has exited for good — inbox closed and
	// drained, or restarts exhausted.
	StateStopped
)

var stateNames = [...]string{StateLive: "live", StateBackoff: "backoff", StateStopped: "stopped"}

// String implements fmt.Stringer.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Handler processes one payload. The payload arrives owned: the handler
// may move it onward (e.g. into another domain's mailbox), consume it
// with Into, or leave it untouched — a payload still live when a fault
// unwinds to the entry point is reclaimed by the runtime through the
// Release hook. A returned error is a fault: the supervisor applies the
// restart policy, exactly as for a panic.
// Handlers that can tolerate an error must absorb it themselves.
type Handler[T any] func(msg linear.Owned[T]) error

// Config parameterizes a supervised domain.
type Config[T any] struct {
	// Name labels the domain in snapshots and errors.
	Name string
	// Mailbox is the inbox capacity (default 8).
	Mailbox int
	// Handler serves the inbox. Required.
	Handler Handler[T]
	// Release reclaims resources inside a payload the runtime destroys:
	// mailbox tail drops, backlog drained at stop, and payloads
	// abandoned by a crashing handler.
	Release func(T)
	// Recover reinitializes handler state from clean after a fault,
	// before the restarted domain serves again — the §3 user recovery
	// function. A Recover error counts as another fault.
	Recover func() error
	// State, when non-nil and Policy.CheckpointEvery > 0, opts the
	// domain into checkpointed recovery (§5): the serving goroutine
	// snapshots it every checkpoint epoch at mailbox-quiescent points,
	// and a restart restores the last good snapshot (after Recover has
	// rebuilt the handler plumbing) instead of carrying live state
	// across the fault. With CheckpointEvery == 0 the field is ignored
	// and state survives restarts unmanaged, as before.
	State Stateful
}

// stats fields are telemetry cells: written by the domain goroutine and
// the supervisor, read by snapshots and metric scrapes while traffic
// flows. Registering them on a telemetry.Registry (Policy.Registry)
// attaches names; the write path is identical either way.
type stats struct {
	processed    telemetry.Counter
	errors       telemetry.Counter
	crashes      telemetry.Counter
	hangs        telemetry.Counter
	restarts     telemetry.Counter
	reclaimed    telemetry.Counter
	backoffNanos atomic.Int64
}

// Snapshot is a plain-value copy of one domain's counters, taken
// point-in-time from monotonically increasing atomics (the same snapshot
// semantics as netbricks.WorkerStats and sfi.Stats): safe to call during
// a live run, never blocks the hot path.
type Snapshot struct {
	Name  string
	State State
	// Processed counts payloads the handler completed without fault.
	Processed uint64
	// Errors and Crashes partition faults: handler error returns vs
	// panics caught at the entry point.
	Errors  uint64
	Crashes uint64
	// Hangs counts heartbeat-stall detections (the stuck goroutine is
	// abandoned and superseded).
	Hangs uint64
	// Restarts counts completed restart cycles (recovery ran, a fresh
	// serving goroutine started).
	Restarts uint64
	// Reclaimed counts payloads the entry point recovered from a
	// faulting handler and released.
	Reclaimed uint64
	// TimeInBackoff accumulates scheduled backoff delay.
	TimeInBackoff time.Duration
	// Checkpoint lifecycle counters (§5 integration): epochs published,
	// failed attempts (error or mid-traversal fault), and restores of the
	// last good checkpoint (a restart's, or a durable seed's at Spawn).
	// All zero when checkpointing is off. ColdStarts counts restarts that
	// reset the state for want of an epoch: 0 by construction since Spawn
	// seeds the first one, kept for readers that still report it.
	Checkpoints        uint64
	CheckpointFailures uint64
	Restores           uint64
	ColdStarts         uint64
	// Durability counters (Policy.Persist): epochs made durable and
	// encode/append failures (each failure leaves the RAM epoch standing,
	// only durability lags). Zero when persistence is off.
	Persisted       uint64
	PersistFailures uint64
	// Mailbox counters, plus instantaneous depth.
	MailboxDepth int
	MailboxSends uint64
	MailboxRecvs uint64
	MailboxDrops uint64
}

// Domain is a long-lived supervised goroutine serving a mailbox. Create
// one with Spawn; the zero Domain is invalid.
type Domain[T any] struct {
	name    string
	sup     *Supervisor
	inbox   *Mailbox[T]
	handler Handler[T]
	release func(T)
	recover func() error

	// rec/actor: the supervisor's flight recorder (nil-safe) and this
	// domain's interned name in it. The inbox shares the actor ID.
	rec   *telemetry.Recorder
	actor telemetry.ActorID

	// epoch identifies the serving goroutine generation. The supervisor
	// bumps it to supersede a goroutine it has given up on (a hang): the
	// stale goroutine notices at its next checkpoint and exits silently.
	// quit is the current generation's wakeup: supersede closes it so a
	// goroutine parked on an empty inbox exits instead of competing with
	// its replacement for the next payload.
	epoch atomic.Uint64
	gmu   sync.Mutex
	quit  chan struct{}
	// busy+beat implement the heartbeat: busy holds the epoch of the
	// generation inside a handler invocation (0 when none is), beat stamps
	// the invocation's start. A domain blocked on an empty inbox is idle,
	// not hung, and so is a replacement generation whose abandoned
	// predecessor is still stuck: the verdict belongs to the generation.
	busy  atomic.Uint64
	beat  atomic.Int64 // unix nanos
	state atomic.Int32
	// faultStreak counts consecutive faults (reset by a completed
	// invocation); the restart policy's budget applies to the streak.
	faultStreak atomic.Uint64

	// ck is the §5 checkpoint machinery; nil when checkpointing is off.
	ck *ckptState

	st   stats
	done chan struct{} // closed when the domain stops for good
}

// Name returns the domain's label.
func (d *Domain[T]) Name() string { return d.name }

// Inbox returns the domain's mailbox; producers send work here.
func (d *Domain[T]) Inbox() *Mailbox[T] { return d.inbox }

// State returns the current lifecycle state.
func (d *Domain[T]) State() State { return State(d.state.Load()) }

// Done returns a channel closed when the domain has stopped for good:
// its inbox was closed and fully drained, or its restart budget ran out.
func (d *Domain[T]) Done() <-chan struct{} { return d.done }

// Snapshot returns a point-in-time copy of the domain's counters.
func (d *Domain[T]) Snapshot() Snapshot {
	sn := Snapshot{
		Name:          d.name,
		State:         d.State(),
		Processed:     d.st.processed.Load(),
		Errors:        d.st.errors.Load(),
		Crashes:       d.st.crashes.Load(),
		Hangs:         d.st.hangs.Load(),
		Restarts:      d.st.restarts.Load(),
		Reclaimed:     d.st.reclaimed.Load(),
		TimeInBackoff: time.Duration(d.st.backoffNanos.Load()),
		MailboxDepth:  d.inbox.Depth(),
		MailboxSends:  d.inbox.Stats.Sends.Load(),
		MailboxRecvs:  d.inbox.Stats.Recvs.Load(),
		MailboxDrops:  d.inbox.Stats.Drops.Load(),
	}
	if ck := d.ck; ck != nil {
		sn.Checkpoints = ck.taken.Load()
		sn.CheckpointFailures = ck.failed.Load()
		sn.Restores = ck.restores.Load()
		sn.Persisted = ck.persisted.Load()
		sn.PersistFailures = ck.persistFailed.Load()
	}
	return sn
}

// serve starts a serving goroutine for the given epoch, installing its
// quit channel first (unless a concurrent supersession already retired
// the epoch, in which case the goroutine exits at its first checkpoint).
func (d *Domain[T]) serve(epoch uint64) {
	q := make(chan struct{})
	d.gmu.Lock()
	if d.epoch.Load() == epoch {
		d.quit = q
	} else {
		close(q) // epoch already retired: run exits immediately
	}
	d.gmu.Unlock()
	go d.run(epoch, q)
}

// run is one serving-goroutine generation. It exits when the inbox is
// closed and drained (domain stops), when a fault occurs (the supervisor
// restarts a fresh generation), or when it discovers it was superseded.
func (d *Domain[T]) run(epoch uint64, quit <-chan struct{}) {
	// The monitor wakes an idle domain whose epoch is due; under sustained
	// traffic, where recv's preference for payloads starves the wake, the
	// dueness check after each invocation paces the epochs instead.
	var wake chan struct{}
	if d.ck != nil {
		wake = d.ck.wake
	}
	for {
		if d.epoch.Load() != epoch {
			return // superseded while idle
		}
		msg, err := d.inbox.recv(quit, wake)
		switch err {
		case nil:
			// A superseded goroutine can still win the race for one queued
			// payload (quit and a pending message are both ready in recv's
			// select). It completes that one invocation — the payload is
			// accounted for exactly once either way — and exits below.
			if fault := d.invoke(msg, epoch); fault != nil {
				if d.epoch.Load() == epoch {
					d.fault(epoch)
				}
				return
			}
			if d.epoch.Load() != epoch {
				return // late success of an abandoned generation: counted, then exit
			}
			d.faultStreak.Store(0)
		case errCheckpointDue: // the inbox was empty when the wake came
			if d.epoch.Load() != epoch {
				return
			}
		default:
			if err != errSuperseded && d.epoch.Load() == epoch {
				d.stop()
			}
			return
		}
		// Idle, or between invocations: the handler is not running, so the
		// traversal races no hot-path mutator. A checkpoint fault is
		// reported like a handler fault.
		if d.ck != nil && d.ck.due(d.now()) {
			if fault := d.takeCheckpoint(epoch); fault != nil {
				d.fault(epoch)
				return
			}
		}
	}
}

// now reads the supervisor's clock.
func (d *Domain[T]) now() time.Time { return d.sup.clock.Now() }

// fault ends a current generation that faulted: it reports to the
// monitor, and the goroutine exits right after.
func (d *Domain[T]) fault(epoch uint64) {
	select {
	case d.sup.events <- event{d, epoch}:
	case <-d.sup.stop:
	}
}

// invoke is the domain entry point: heartbeat, guard, fault accounting,
// and reclamation of payloads abandoned by a fault. It returns nil when
// the handler completed, or the fault.
func (d *Domain[T]) invoke(msg linear.Owned[T], epoch uint64) error {
	d.beat.Store(d.now().UnixNano())
	d.busy.Store(epoch)
	err := d.guard(msg)
	d.busy.CompareAndSwap(epoch, 0) // a replacement's invocation is not ours to clear
	if err == nil {
		d.st.processed.Add(1)
		return nil
	}
	// Fault path: the stack has unwound to the entry point. Reclaim the
	// payload if the handler left it live so no buffer leaks across the
	// fault, regardless of which generation this is.
	if msg.Valid() {
		if v, ierr := msg.Into(); ierr == nil {
			d.st.reclaimed.Add(1)
			if d.release != nil {
				d.release(v)
			}
		}
	}
	return err
}

// guard converts handler panics into ErrCrashed, the asynchronous
// equivalent of sfi's remote-invocation boundary.
func (d *Domain[T]) guard(msg linear.Owned[T]) (err error) {
	defer func() {
		if p := recover(); p != nil {
			d.st.crashes.Add(1)
			d.rec.Record(d.actor, telemetry.EvPanic, d.faultStreak.Load()+1)
			err = &faultError{domain: d.name, what: "panic", val: p}
		}
	}()
	if herr := d.handler(msg); herr != nil {
		d.st.errors.Add(1)
		d.rec.Record(d.actor, telemetry.EvError, d.faultStreak.Load()+1)
		return &faultError{domain: d.name, err: herr}
	}
	return nil
}

// supersede retires the current serving generation and returns the new
// epoch. The retired generation's quit channel is closed so a goroutine
// parked on an empty inbox wakes and exits; one already inside a handler
// notices the epoch change at its next checkpoint instead.
func (d *Domain[T]) supersede() uint64 {
	d.gmu.Lock()
	e := d.epoch.Add(1)
	if d.quit != nil {
		close(d.quit)
		d.quit = nil
	}
	d.gmu.Unlock()
	return e
}

// stalled reports whether the domain's current generation has been
// inside one handler invocation for longer than limit. A generation the
// supervisor already abandoned is not the domain's to be stalled by.
func (d *Domain[T]) stalled(now time.Time, limit time.Duration) bool {
	e := d.busy.Load()
	return e != 0 && e == d.epoch.Load() && now.UnixNano()-d.beat.Load() > int64(limit)
}

// stop retires the domain permanently: supersede any serving goroutine,
// destroy the backlog, close Done. Safe to call more than once.
func (d *Domain[T]) stop() {
	d.supersede()
	if d.state.Swap(int32(StateStopped)) == int32(StateStopped) {
		return
	}
	d.rec.Record(d.actor, telemetry.EvStop, 0)
	d.inbox.Drain()
	close(d.done)
}

// registerMetrics exports the domain's counters on reg labeled
// {domain=<name>}. Called once at Spawn; the record path never sees the
// registry.
func (d *Domain[T]) registerMetrics(reg telemetry.Registrar) {
	labels := telemetry.Labels{"domain": d.name}
	reg.RegisterCounter("domain_processed_total", labels, &d.st.processed)
	reg.RegisterCounter("domain_errors_total", labels, &d.st.errors)
	reg.RegisterCounter("domain_crashes_total", labels, &d.st.crashes)
	reg.RegisterCounter("domain_hangs_total", labels, &d.st.hangs)
	reg.RegisterCounter("domain_restarts_total", labels, &d.st.restarts)
	reg.RegisterCounter("domain_reclaimed_total", labels, &d.st.reclaimed)
	reg.RegisterCounterFunc("domain_backoff_seconds_total", labels, func() float64 {
		return time.Duration(d.st.backoffNanos.Load()).Seconds()
	})
	reg.RegisterGaugeFunc("domain_state", labels, func() float64 {
		return float64(d.state.Load())
	})
	if ck := d.ck; ck != nil {
		reg.RegisterCounter("domain_checkpoints_taken_total", labels, &ck.taken)
		reg.RegisterCounter("domain_checkpoint_failures_total", labels, &ck.failed)
		reg.RegisterCounter("domain_restores_total", labels, &ck.restores)
		reg.RegisterHistogram("domain_checkpoint_seconds", labels, &ck.ckptLat)
		reg.RegisterHistogram("domain_restore_seconds", labels, &ck.restoreLat)
		if ck.persist != nil {
			reg.RegisterCounter("domain_checkpoints_persisted_total", labels, &ck.persisted)
			reg.RegisterCounter("domain_persist_failures_total", labels, &ck.persistFailed)
			reg.RegisterHistogram("domain_persist_seconds", labels, &ck.persistLat)
		}
	}
	reg.RegisterCounter("mailbox_sends_total", labels, &d.inbox.Stats.Sends)
	reg.RegisterCounter("mailbox_recvs_total", labels, &d.inbox.Stats.Recvs)
	reg.RegisterCounter("mailbox_drops_total", labels, &d.inbox.Stats.Drops)
	reg.RegisterGaugeFunc("mailbox_depth", labels, func() float64 {
		return float64(d.inbox.Depth())
	})
}
