package session

// spill.go turns the RAM session table into a cache over a durable flow
// set. A Table with a Spill attached evicts cold flows to an on-disk
// index when it grows past its cap and promotes them back on their next
// packet, so the tracked flow population is bounded by disk, not memory
// — the ROADMAP's million-flow direction. The interface is defined here
// (not in statestore) so the session package stays storage-agnostic;
// statestore.FlowIndex implements it structurally.

import (
	"repro/internal/evict"
	"repro/internal/packet"
)

// SpillRecord is the fixed-shape durable image of one flow: its
// restorable identity (hash, tuple, backend) plus the soft counters.
type SpillRecord struct {
	Hash    uint64
	Tuple   packet.FiveTuple
	Backend packet.IPv4
	Packets uint64
	Bytes   uint64
}

// Spill is the on-disk flow index contract. Implementations must be
// safe for concurrent use; the table calls them under its own lock.
type Spill interface {
	// SpillFlows durably records a batch of evicted flows (upsert by
	// Hash). An error leaves the batch untracked on disk; the table
	// keeps the flows in RAM. recs is scratch the table reuses across
	// eviction batches — implementations must not retain it.
	SpillFlows(recs []SpillRecord) error
	// LookupFlow returns the spilled record for a flow hash, if any.
	LookupFlow(hash uint64) (SpillRecord, bool, error)
	// FlowCount reports the number of distinct flows in the index.
	FlowCount() (int, error)
}

// SetSpill attaches a spill index and a RAM cap. When the table grows
// past maxFlows, Track evicts a batch of flows (down to ~7/8 of the
// cap, amortizing the spill write) into the index; a tracked packet for
// an evicted flow promotes it back with its counters intact. maxFlows
// <= 0 leaves the RAM table unbounded — the index then only serves
// lookups for flows spilled earlier (e.g. by a previous process).
func (t *Table) SetSpill(s Spill, maxFlows int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spill = s
	t.maxFlows = maxFlows
	t.rebuildRingLocked()
}

// SpillStats reports flows evicted to the index, flows promoted back,
// and spill I/O errors (each error leaves the table correct but over
// its RAM cap).
func (t *Table) SpillStats() (spilled, promoted, errs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spilled, t.promoted, t.spillErrs
}

// ringAppendLocked registers a newly resident flow with the eviction
// clock. The ring is only maintained while a spill index is attached.
func (t *Table) ringAppendLocked(h uint64) {
	if t.spill == nil {
		return
	}
	t.clock.Add(h)
}

// rebuildRingLocked reseeds the clock ring from the resident flow set —
// used when a spill index is attached to a populated table and after
// Restore replaces the flow map wholesale.
func (t *Table) rebuildRingLocked() {
	t.clock.Reset()
	if t.spill == nil {
		return
	}
	for h := range t.flows {
		t.clock.Add(h)
	}
}

// promoteLocked pulls an evicted flow back into RAM on a miss. The
// promoted flow keeps its durable backend and counters and is marked
// Spilled: the index still holds it, so total-count views must not
// count it twice.
func (t *Table) promoteLocked(h uint64) *Flow {
	rec, ok, err := t.spill.LookupFlow(h)
	if err != nil {
		t.spillErrs++
		return nil
	}
	if !ok {
		return nil
	}
	f := t.newFlowLocked()
	f.Tuple = rec.Tuple
	f.Backend = t.internLocked(rec.Backend).Clone()
	f.Packets = rec.Packets
	f.Bytes = rec.Bytes
	f.Spilled = true
	t.flows[h] = f
	t.ringAppendLocked(h)
	t.promoted++
	return f
}

// evictLocked spills surplus flows once the table exceeds its cap,
// down to ~7/8 of maxFlows in one batch write. keep is the hash of the
// flow just touched — never a victim.
//
// Victims come from the second-chance clock (package evict): the hand
// walks the residency ring, spares any flow whose reference bit is set
// (clearing the bit), and spills the cold ones it lands on. Hot flows
// therefore survive as long as packets keep arriving for them; a plain
// map-order walk — the previous policy — spilled hot and cold alike. The
// victim slice is the clock's and the record slice is scratch retained on
// the table, so a steady eviction cadence allocates nothing.
func (t *Table) evictLocked(keep uint64) {
	if t.spill == nil || t.maxFlows <= 0 {
		return
	}
	victims := t.clock.Sweep(len(t.flows), t.maxFlows, keep, func(h uint64) evict.Verdict {
		f, ok := t.flows[h]
		switch {
		case !ok:
			return evict.Gone // already evicted or replaced
		case f.hot:
			f.hot = false
			return evict.Spared
		}
		return evict.Victim
	})
	recs := t.recScratch[:0]
	for _, h := range victims {
		f := t.flows[h]
		recs = append(recs, SpillRecord{
			Hash:    h,
			Tuple:   f.Tuple,
			Backend: f.Backend.Peek().IP,
			Packets: f.Packets,
			Bytes:   f.Bytes,
		})
	}
	t.recScratch = recs[:0]
	if len(recs) == 0 {
		return
	}
	if err := t.spill.SpillFlows(recs); err != nil {
		// The batch may not be durable: keep the flows in RAM (the table
		// runs over its cap — degraded, never wrong), restore the victims
		// to the clock ring, and count it.
		t.spillErrs++
		for _, h := range victims {
			t.clock.Add(h)
		}
		return
	}
	for _, h := range victims {
		if f, ok := t.flows[h]; ok {
			delete(t.flows, h)
			t.freeFlowLocked(f)
		}
	}
	t.spilled += uint64(len(recs))
}
