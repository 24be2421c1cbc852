package telemetry

import "sync/atomic"

// Ring is the one lock-free, seq-validated ring in the tree: a fixed
// power-of-two array of slots that writers overwrite oldest-first and
// readers dump without ever making a writer wait. The flight recorder
// and the completed-trace ring are both this type. S is the record's
// cells — a struct of atomic cells and nothing else, so recording and
// dumping are race-free by construction and a slot is pointer-free
// (leakcheck.NoPointers asserts it for both users): nothing recorded can
// pin a payload, a name or a span against the GC.
//
// The protocol, written once: Claim takes the next position with one
// atomic add and zeroes the slot's seq, so a concurrent reader sees it
// as mid-write; the caller fills the cells; Publish stores the position
// into seq. A reader accepts a slot only if seq equals the position it
// expects both before and after it has loaded the cells. Under extreme
// wrap pressure (a writer lapping the ring inside another writer's fill)
// a record can surface with mixed cells — the classic flight-recorder
// trade: the record path must never wait.
//
// The zero Ring holds nothing; Init sizes it. Owners embed it by value,
// so the record path reaches a slot through the owner's own pointer.
type Ring[S any] struct {
	slots  []ringSlot[S]
	mask   uint64
	cursor atomic.Uint64
}

type ringSlot[S any] struct {
	seq   atomic.Uint64 // 1-based claim position; 0 = empty or being written
	cells S
}

// Init sizes the ring to hold the last n records, n rounded up to a
// power of two. Call it once, before the first Claim.
func (r *Ring[S]) Init(n int) {
	size := 1
	for size < n {
		size <<= 1
	}
	r.slots = make([]ringSlot[S], size)
	r.mask = uint64(size - 1)
}

// Cap reports the ring's capacity in records.
func (r *Ring[S]) Cap() int { return len(r.slots) }

// Len reports how many records are currently dumpable (at most Cap).
func (r *Ring[S]) Len() int {
	return int(min(r.cursor.Load(), uint64(len(r.slots))))
}

// Claim takes the next position, overwriting the oldest record, and
// returns its cells for the caller to fill and the position to Publish.
// Safe for concurrent use; allocates nothing.
func (r *Ring[S]) Claim() (cells *S, pos uint64) {
	pos = r.cursor.Add(1) // 1-based
	s := &r.slots[(pos-1)&r.mask]
	s.seq.Store(0) // invalidate for concurrent readers
	return &s.cells, pos
}

// Publish makes the record claimed at pos visible to readers.
func (r *Ring[S]) Publish(pos uint64) {
	r.slots[(pos-1)&r.mask].seq.Store(pos)
}

// Scan visits the published records in sequence order, oldest first.
// For each it calls read, which loads the cells into the caller's own
// scratch, and then keep — but only if the slot still held pos once read
// had returned, that is if what read loaded is one record. Slots seen
// mid-write or overwritten are skipped. Scan is the dump path: closures
// are fine here, never on the record path.
func (r *Ring[S]) Scan(read func(pos uint64, cells *S), keep func()) {
	head := r.cursor.Load()
	start := uint64(1)
	if n := uint64(len(r.slots)); head > n {
		start = head - n + 1
	}
	for pos := start; pos <= head; pos++ {
		s := &r.slots[(pos-1)&r.mask]
		if s.seq.Load() != pos {
			continue // overwritten or mid-write
		}
		read(pos, &s.cells)
		if s.seq.Load() == pos { // else overwritten while reading
			keep()
		}
	}
}
