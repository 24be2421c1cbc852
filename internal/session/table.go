// Package session is the flow-tracking NF: a session table mapping each
// five-tuple the load balancer steered to the backend it was steered to,
// with soft packet and byte counters. Its live state is the
// pointer-linked graph the paper's §5 checkpointing is about: every
// tracked flow holds its backend through a linear.Rc, and flows steered
// to the same backend share one box (Figure 3a's aliasing, on live
// state), so for every interned backend StrongCount is the number of
// resident flows naming it plus the table's own handle.
//
// table.go is the table and its netbricks stage; spill.go bounds it in
// RAM by evicting cold flows to a Spill index (statestore.FlowIndex) and
// promoting them back; durable.go is its checkpoint, the v1 wire image
// written straight from this graph. The reflect engine walks the same
// graph as the oracle the wire path is tested against.
package session

import (
	"sync"

	"repro/internal/evict"
	"repro/internal/linear"
	"repro/internal/netbricks"
	"repro/internal/packet"
)

// Backend identifies the upstream a flow was steered to — the maglev
// rewrite observed on the wire. Kept behind an Rc so all flows to one
// backend share a single box.
type Backend struct {
	IP packet.IPv4
}

// Flow is one tracked five-tuple and its shared backend handle, plus
// soft byte/packet counters (deltas since the last checkpoint are lost
// across a fault; flow identity is not). Spilled marks a flow the spill
// index also holds (it was evicted and promoted back), so population
// counts across RAM and disk count it once.
type Flow struct {
	Tuple   packet.FiveTuple
	Backend linear.Rc[Backend]
	Packets uint64
	Bytes   uint64
	Spilled bool

	// hot is the second-chance reference bit: set on every tracked
	// packet, cleared when the eviction clock hand passes over the flow.
	// Derived state — checkpoints don't carry it (restored flows start
	// cold) and the spill index never sees it.
	hot bool
}

// Table is the session table: flow hash → Flow, with an intern map
// handing each distinct backend one shared Rc box. All methods take the
// table's lock, including Checkpoint/Restore/Reset — the domain
// runtime's Stateful contract requires the state to serialize against
// abandoned generations itself.
type Table struct {
	mu     sync.Mutex
	flows  map[uint64]*Flow
	intern map[packet.IPv4]linear.Rc[Backend]

	// Spill state (see spill.go): when spill is non-nil the RAM table is
	// a cache over the on-disk flow index, capped at maxFlows.
	spill     Spill
	maxFlows  int
	spilled   uint64
	promoted  uint64
	spillErrs uint64

	// Eviction clock (see spill.go) over the resident flows, maintained
	// only while a spill index is attached; hotTouched counts flows the
	// hand spared because their ref bit was set.
	clock      evict.Clock
	hotTouched uint64

	// moved counts packets steered to a backend other than the one the
	// table holds for their flow.
	moved uint64

	// Per-batch scratch reused across evictions, and a free list of Flow
	// objects so steady-state churn (evict → new flow) allocates nothing.
	recScratch []SpillRecord
	flowPool   []*Flow

	// slab holds every flow of the last Restore (durable.go); the next
	// one overwrites it.
	slab []Flow
}

// newFlowLocked takes a zeroed Flow from the pool, or allocates one.
func (t *Table) newFlowLocked() *Flow {
	n := len(t.flowPool)
	if n == 0 {
		return &Flow{}
	}
	f := t.flowPool[n-1]
	t.flowPool[n-1] = nil
	t.flowPool = t.flowPool[:n-1]
	return f
}

// freeFlowLocked gives back a no-longer-tracked Flow's backend handle,
// zeroes the Flow and pools it.
func (t *Table) freeFlowLocked(f *Flow) {
	_ = f.Backend.Drop() // never the last handle: the intern map holds one
	*f = Flow{}
	t.flowPool = append(t.flowPool, f)
}

// NewTable creates an empty session table.
func NewTable() *Table {
	return &Table{
		flows:  make(map[uint64]*Flow),
		intern: make(map[packet.IPv4]linear.Rc[Backend]),
	}
}

// internLocked returns the shared Rc box for a backend IP, creating it
// on first sight. Callers hold t.mu.
func (t *Table) internLocked(ip packet.IPv4) linear.Rc[Backend] {
	rc, interned := t.intern[ip]
	if !interned {
		rc = linear.NewRc(Backend{IP: ip})
		t.intern[ip] = rc
	}
	return rc
}

// Track records one packet of flow tu steered to backend ip. New flows
// clone the interned backend handle (bumping its strong count); known
// flows just bump counters, and count as moved when ip is not the
// backend they hold. With a spill index attached, a RAM miss first tries
// to promote the flow's evicted record (its backend and counters
// survive), and growth past the cap evicts a batch to disk.
func (t *Table) Track(tu packet.FiveTuple, ip packet.IPv4, nbytes int) {
	h := tu.Hash()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.flows[h]
	if !ok && t.spill != nil {
		f = t.promoteLocked(h)
	}
	if f == nil {
		f = t.newFlowLocked()
		f.Tuple = tu
		f.Backend = t.internLocked(ip).Clone()
		t.flows[h] = f
		t.ringAppendLocked(h)
	} else if f.Backend.Peek().IP != ip {
		t.moved++
	}
	f.hot = true
	f.Packets++
	f.Bytes += uint64(nbytes)
	t.evictLocked(h)
}

// Len reports the number of tracked flows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flows)
}

// Moved reports the packets steered to a backend other than the one the
// table holds for their flow: a flow the load balancer forgot (evicted
// from its connection table, or lost to a cold start) and re-hashed
// after its backend set changed. The table keeps the backend it first
// saw while the balancer tracks the flow on its new one, so every later
// packet of a moved flow counts again: this is traffic that moved, not a
// number of moves. The count is this table's own, kept across Reset and
// Restore.
func (t *Table) Moved() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.moved
}

// Backends reports the number of distinct interned backends.
func (t *Table) Backends() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.intern)
}

// Entries returns flow hash → backend IP: the restorable identity of the
// table, the shape the chaos tier compares against its fault-free
// oracle. (Packet/byte counters are soft deltas a fault may lose.)
func (t *Table) Entries() map[uint64]packet.IPv4 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint64]packet.IPv4, len(t.flows))
	for h, f := range t.flows {
		out[h] = f.Backend.Peek().IP
	}
	return out
}

// Reset cold-starts the table to empty.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flows = make(map[uint64]*Flow)
	t.intern = make(map[packet.IPv4]linear.Rc[Backend])
	t.clock.Reset()
	t.flowPool = nil
	t.slab = nil
}

// Operator adapts the table into a NetBricks stage placed after the load
// balancer: at that point the packet's destination IP (and UserTag) is
// the chosen backend, so each parsed packet records one Track call.
type Operator struct {
	T *Table
}

// Name implements netbricks.Operator.
func (Operator) Name() string { return "session" }

// ProcessBatch implements netbricks.Operator.
func (o Operator) ProcessBatch(b *netbricks.Batch) error {
	for _, p := range b.Pkts {
		if !p.Parsed() {
			continue
		}
		tu := p.Tuple()
		ip := tu.DstIP
		if p.UserTag != 0 {
			ip = packet.IPv4(p.UserTag)
		}
		o.T.Track(tu, ip, p.Len())
	}
	return nil
}

var _ netbricks.Operator = Operator{}
