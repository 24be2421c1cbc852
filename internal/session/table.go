// Package session is the flow-tracking NF: a session table mapping each
// five-tuple the load balancer steered to the backend it was steered to,
// with soft packet and byte counters. Its live state is the
// pointer-linked graph the paper's §5 checkpointing is about: every
// tracked flow holds its backend through a linear.Rc, and flows steered
// to the same backend share one box (Figure 3a's aliasing, on live
// state), so for every interned backend StrongCount is the number of
// resident flows naming it plus the table's own handle.
//
// Each flow is one entry of an evict.Table: its hash and its Flow,
// inline, in one dense array that is also the eviction clock's ring, so
// a resident flow costs its 56-byte entry and an index slot, and no
// object of its own.
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
// counts across RAM and disk count it once. The flow's second-chance
// reference bit is the table's (evict.Table.Touch): derived state that
// checkpoints do not carry (restored flows start cold) and the spill
// index never sees.
type Flow struct {
	Tuple   packet.FiveTuple
	Backend linear.Rc[Backend]
	Packets uint64
	Bytes   uint64
	Spilled bool
}

// Table is the session table: flow hash → Flow, with an intern map
// handing each distinct backend one shared Rc box. All methods take the
// table's lock, including Checkpoint/Restore/Reset — the domain
// runtime's Stateful contract requires the state to serialize against
// abandoned generations itself.
type Table struct {
	mu     sync.Mutex
	flows  evict.Table[Flow]
	intern map[packet.IPv4]linear.Rc[Backend]

	// Spill state (see spill.go): when spill is non-nil the RAM table is
	// a cache over the on-disk flow index, capped at the flows' limit.
	spill     Spill
	spilled   uint64
	promoted  uint64
	spillErrs uint64

	// moved counts packets steered to a backend other than the one the
	// table holds for their flow.
	moved uint64

	// recScratch is an eviction batch's spill records, reused across
	// batches.
	recScratch []SpillRecord
}

// NewTable creates an empty session table.
func NewTable() *Table {
	return &Table{intern: make(map[packet.IPv4]linear.Rc[Backend])}
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
	i := t.flows.Find(h)
	if i < 0 && t.spill != nil {
		i = t.promoteLocked(h)
	}
	var f *Flow
	if i < 0 {
		i = t.flows.Add(h)
		_, f = t.flows.At(i)
		f.Tuple = tu
		f.Backend = t.internLocked(ip).Clone()
	} else if _, f = t.flows.At(i); f.Backend.Peek().IP != ip {
		t.moved++
	}
	t.flows.Touch(i)
	f.Packets++
	f.Bytes += uint64(nbytes)
	t.evictLocked(h)
}

// Len reports the number of tracked flows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flows.Len()
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
	out := make(map[uint64]packet.IPv4, t.flows.Len())
	for i := 0; i < t.flows.Len(); i++ {
		h, f := t.flows.At(i)
		out[h] = f.Backend.Peek().IP
	}
	return out
}

// Reset cold-starts the table to empty, keeping its memory.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flows.Reset()
	clear(t.intern)
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
