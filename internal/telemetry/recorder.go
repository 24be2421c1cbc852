package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a flight-recorder event. The set mirrors the
// lifecycle of a supervised protection domain: payload movement through
// mailboxes, the fault taxonomy (error, panic, heartbeat-miss), and the
// supervisor's responses (backoff, restart, stop).
type EventKind uint32

// Flight-recorder event kinds. Arg carries the per-kind detail noted on
// each constant.
const (
	// EvSend: a payload entered a mailbox. Arg = queue depth after.
	EvSend EventKind = iota + 1
	// EvRecv: a payload left a mailbox. Arg = queue depth after.
	EvRecv
	// EvDrop: a mailbox destroyed a payload (tail drop or closed).
	EvDrop
	// EvError: a handler returned an error. Arg = consecutive-fault streak.
	EvError
	// EvPanic: a handler panic was caught at the entry point.
	EvPanic
	// EvHang: the supervisor declared a heartbeat miss.
	EvHang
	// EvBackoff: a restart was scheduled. Arg = backoff nanoseconds.
	EvBackoff
	// EvRestart: a restart completed and the domain serves again.
	EvRestart
	// EvStop: the domain stopped for good.
	EvStop
	// EvCheckpoint: a domain published a state checkpoint. Arg =
	// traversal latency in nanoseconds.
	EvCheckpoint
	// EvRestore: a restarted domain restored the last good checkpoint.
	// Arg = restore latency in nanoseconds.
	EvRestore
	// EvTrace: a sampled packet trace completed at TX. Arg = trace ID,
	// the exemplar link into /debug/traces.
	EvTrace
	// EvTraceAbort: a sampled packet trace ended without reaching TX —
	// the packet was dropped, its batch faulted, or its domain crashed
	// with the trace in flight. Arg = trace ID.
	EvTraceAbort
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvDrop:
		return "drop"
	case EvError:
		return "error"
	case EvPanic:
		return "panic"
	case EvHang:
		return "hang"
	case EvBackoff:
		return "backoff"
	case EvRestart:
		return "restart"
	case EvStop:
		return "stop"
	case EvCheckpoint:
		return "checkpoint"
	case EvRestore:
		return "restore"
	case EvTrace:
		return "trace"
	case EvTraceAbort:
		return "trace-abort"
	default:
		return fmt.Sprintf("kind(%d)", uint32(k))
	}
}

// ActorID names an event source (a domain, a mailbox) inside a Recorder.
// IDs are interned once at spawn time so the record path stores a
// four-byte index instead of a string — the ring holds no pointers and
// can never pin a payload, a name, or anything else against the GC.
type ActorID uint32

// eventCells is one ring record. Every field is an atomic cell and none
// is a pointer (see Ring), so a recorded event can never retain a
// linear.Owned payload that crashed mid-flight.
type eventCells struct {
	nanos atomic.Int64 // unix nanoseconds
	actor atomic.Uint32
	kind  atomic.Uint32
	arg   atomic.Uint64
}

// Event is the dump-side, reader-friendly form of one recorded event.
type Event struct {
	Seq   uint64    // global sequence number (1-based, monotonic)
	Time  time.Time //
	Actor string    // interned actor name ("?" for the zero ActorID)
	Kind  EventKind
	Arg   uint64 // per-kind detail; see the EventKind constants
}

// String renders one event for a dump listing.
func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s %s arg=%d",
		e.Seq, e.Time.Format("15:04:05.000000"), e.Actor, e.Kind, e.Arg)
}

// Recorder is a fixed-size ring buffer of the last N events — the
// flight recorder, a Ring of eventCells. Record is lock-free and
// allocation-free; Dump reads concurrently with writers and discards
// slots it observes mid-write.
//
// A nil *Recorder is valid: Record and Actor become no-ops, so layers
// instrument unconditionally.
type Recorder struct {
	ring Ring[eventCells]

	mu     sync.Mutex
	actors []string
}

// NewRecorder creates a recorder holding the last n events (rounded up
// to a power of two, minimum 16).
func NewRecorder(n int) *Recorder {
	r := &Recorder{}
	r.ring.Init(max(n, 16))
	return r
}

// Actor interns name and returns its ID, reusing the ID of an
// already-interned name. Call at spawn time, never on the record path.
func (r *Recorder) Actor(name string) ActorID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, a := range r.actors {
		if a == name {
			return ActorID(i + 1)
		}
	}
	r.actors = append(r.actors, name)
	return ActorID(len(r.actors))
}

// Record appends one event to the ring, overwriting the oldest. Safe
// for concurrent use; 0 allocs/op.
func (r *Recorder) Record(a ActorID, k EventKind, arg uint64) {
	if r == nil {
		return
	}
	c, pos := r.ring.Claim()
	c.nanos.Store(time.Now().UnixNano())
	c.actor.Store(uint32(a))
	c.kind.Store(uint32(k))
	c.arg.Store(arg)
	r.ring.Publish(pos)
}

// Dump returns the recorded events in sequence order, oldest first.
// Slots observed mid-write (a concurrent Record) are skipped. Dump
// allocates; it is a fault-path/scrape-path operation.
func (r *Recorder) Dump() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.actors...)
	r.mu.Unlock()
	out := make([]Event, 0, r.ring.Len())
	var ev Event
	r.ring.Scan(func(pos uint64, c *eventCells) {
		ev = Event{
			Seq:   pos,
			Time:  time.Unix(0, c.nanos.Load()),
			Kind:  EventKind(c.kind.Load()),
			Arg:   c.arg.Load(),
			Actor: "?",
		}
		if id := c.actor.Load(); id >= 1 && int(id) <= len(names) {
			ev.Actor = names[id-1]
		}
	}, func() { out = append(out, ev) })
	return out
}

// WriteText writes the recorder dump as a text listing, one event per
// line, newest last (what nf-pipeline serves at /debug/flightrecorder).
func (r *Recorder) WriteText(w io.Writer) error {
	for _, ev := range r.Dump() {
		if _, err := fmt.Fprintln(w, ev); err != nil {
			return err
		}
	}
	return nil
}
