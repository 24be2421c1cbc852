// Package evict is the one eviction policy the repository's capped flow
// tables share: a second-chance clock over the hashes of their resident
// entries. A table keeps a reference ("hot") bit beside each entry and
// sets it when the entry is used; once the table grows past its cap it
// asks the clock for victims, down to 7/8 of the cap in one batch. The
// hand walks a ring of hashes and asks the table about each: a hot entry
// has its bit cleared and is spared this pass, a cold one is a victim,
// and a hash that no longer names an entry is dropped.
//
// session.Table spills its victims to disk; maglev.Balancer drops its
// victims, because the lookup table re-hashes an evicted flow to the same
// backend unless the backend set changed.
package evict

// Verdict is a table's answer about one hash under the hand.
type Verdict uint8

const (
	// Gone: the hash names no resident entry any more. The clock drops it.
	Gone Verdict = iota
	// Spared: the entry was used since the hand last passed. The table
	// has cleared its bit, and the hand moves on.
	Spared
	// Victim: the entry is cold. The clock takes it off the ring and hands
	// it back to the table to remove.
	Victim
)

// surplus reports how many entries a table holding resident of them must
// evict to keep its cap: none up to limit, else enough to get down to 7/8
// of limit, so one sweep and one batch serve the next limit/8 inserts.
func surplus(resident, limit int) int {
	if resident <= limit {
		return 0
	}
	return resident - max(limit-limit/8, 1)
}

// Clock is the ring of resident hashes and the hand that sweeps it. The
// zero value is an empty clock. It is not safe for concurrent use: a
// table calls it under its own lock.
type Clock struct {
	ring    []uint64
	hand    int
	victims []uint64 // Sweep's result, reused by the next sweep
}

// Add puts a newly resident entry at the end of the ring.
func (c *Clock) Add(h uint64) { c.ring = append(c.ring, h) }

// Reset empties the ring, keeping its memory, and parks the hand.
func (c *Clock) Reset() {
	c.ring = c.ring[:0]
	c.hand = 0
}

// Hashes returns the ring as it stands: one hash per resident entry, and
// any the hand has not yet found gone. The slice is the clock's own; it
// is valid until the next call that changes the clock.
func (c *Clock) Hashes() []uint64 { return c.ring }

// Sweep keeps a table of resident entries within limit. Up to limit it
// returns nothing. Past it, the hand moves until it has found enough
// victims to bring the table down to 7/8 of limit, and Sweep returns
// their hashes for the table to remove. The slice is the clock's own and
// valid until the next Sweep.
//
// visit answers for each hash the hand lands on, except keep (the entry
// just inserted), which is always spared. A hash leaving the ring is
// replaced by the ring's last, the newest, and the hand looks at that one
// next: past the entries under the hand, a sweep takes the newest cold
// ones, and old cold entries leave a few per sweep. That order keeps a Go
// map under churn from growing (DESIGN.md, "The maglev connection
// table"). The sweep is bounded: one pass over the ring may only clear
// bits, the second finds victims, and every gone hash shrinks the ring,
// so it returns fewer victims than the surplus only when there are no
// more to find.
func (c *Clock) Sweep(resident, limit int, keep uint64, visit func(h uint64) Verdict) []uint64 {
	need := surplus(resident, limit)
	if need == 0 {
		return nil
	}
	c.victims = c.victims[:0]
	for budget := 2*len(c.ring) + need + 1; len(c.victims) < need && len(c.ring) > 0 && budget > 0; budget-- {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		h := c.ring[c.hand]
		v := Spared
		if h != keep {
			v = visit(h)
		}
		switch v {
		case Spared:
			c.hand++
			continue
		case Victim:
			c.victims = append(c.victims, h)
		}
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring = c.ring[:last]
	}
	return c.victims
}
