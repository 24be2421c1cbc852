package session

// spill.go turns the RAM session table into a cache over a durable flow
// set. A Table with a Spill attached evicts cold flows to an on-disk
// index when it grows past its cap and promotes them back on their next
// packet, so the tracked flow population is bounded by disk, not memory
// — the ROADMAP's million-flow direction. The interface is defined here
// (not in statestore) so the session package stays storage-agnostic;
// statestore.FlowIndex implements it structurally.

import (
	"slices"

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
	t.flows.SetLimit(maxFlows)
	if maxFlows > 0 {
		// A sweep from just over the cap takes maxFlows/8+1 victims.
		t.recScratch = slices.Grow(t.recScratch[:0], maxFlows/8+1)
	}
}

// SpillStats reports flows evicted to the index, flows promoted back,
// and spill I/O errors (each error leaves the table correct but over
// its RAM cap).
func (t *Table) SpillStats() (spilled, promoted, errs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spilled, t.promoted, t.spillErrs
}

// promoteLocked pulls an evicted flow back into RAM on a miss and
// returns its position, or -1. The promoted flow keeps its durable
// backend and counters and is marked Spilled: the index still holds it,
// so total-count views must not count it twice.
func (t *Table) promoteLocked(h uint64) int {
	rec, ok, err := t.spill.LookupFlow(h)
	if err != nil {
		t.spillErrs++
		return -1
	}
	if !ok {
		return -1
	}
	i := t.flows.Add(h)
	_, f := t.flows.At(i)
	*f = Flow{
		Tuple:   rec.Tuple,
		Backend: t.internLocked(rec.Backend).Clone(),
		Packets: rec.Packets,
		Bytes:   rec.Bytes,
		Spilled: true,
	}
	t.promoted++
	return i
}

// evictLocked spills surplus flows once the table exceeds its cap,
// down to ~7/8 of it in one batch write. keep is the hash of the flow
// just touched — never a victim.
//
// Victims come from the second-chance clock (package evict): the hand
// walks the table's ring, spares any flow whose reference bit is set
// (clearing the bit), and takes the cold ones it lands on. Hot flows
// therefore survive as long as packets keep arriving for them; a plain
// map-order walk — the policy before the clock — spilled hot and cold
// alike. The record slice is scratch retained on the table, so a steady
// eviction cadence allocates nothing.
func (t *Table) evictLocked(keep uint64) {
	if t.spill == nil {
		return
	}
	n := t.flows.Sweep(keep)
	if n == 0 {
		return
	}
	recs := t.recScratch[:0]
	for k := 0; k < n; k++ {
		h, f := t.flows.Victim(k)
		recs = append(recs, SpillRecord{
			Hash:    h,
			Tuple:   f.Tuple,
			Backend: f.Backend.Peek().IP,
			Packets: f.Packets,
			Bytes:   f.Bytes,
		})
	}
	t.recScratch = recs[:0]
	if err := t.spill.SpillFlows(recs); err != nil {
		// The batch may not be durable: keep the flows in RAM (the table
		// runs over its cap — degraded, never wrong) at the end of the
		// ring, and count it.
		t.spillErrs++
		t.flows.Readmit()
		return
	}
	for k := 0; k < n; k++ {
		_, f := t.flows.Victim(k)
		_ = f.Backend.Drop() // never the last handle: the intern map holds one
	}
	t.flows.Evict()
	t.spilled += uint64(n)
}
