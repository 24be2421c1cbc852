package evict

// clock_test.go keeps the eviction clock the Table replaced, a ring of
// hashes beside a map, as the oracle FuzzFlowTable holds the Table to:
// the same membership after every step, the same victims in the same
// order, the same ring.

import (
	"slices"
	"testing"
)

// verdict is a table's answer about one hash under the clock's hand.
type verdict uint8

const (
	gone verdict = iota
	spared
	victim
)

// clock is the replaced evict.Clock: a ring of resident hashes, a hand,
// and a swap-remove sweep that asks the table about each hash.
type clock struct {
	ring    []uint64
	hand    int
	victims []uint64
}

func (c *clock) add(h uint64) { c.ring = append(c.ring, h) }

func (c *clock) reset() {
	c.ring = c.ring[:0]
	c.hand = 0
}

func (c *clock) sweep(resident, limit int, keep uint64, visit func(h uint64) verdict) []uint64 {
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
		v := spared
		if h != keep {
			v = visit(h)
		}
		switch v {
		case spared:
			c.hand++
			continue
		case victim:
			c.victims = append(c.victims, h)
		}
		last := len(c.ring) - 1
		c.ring[c.hand] = c.ring[last]
		c.ring = c.ring[:last]
	}
	return c.victims
}

// model is the flow table the clock served: a map of hash → entry.
type model struct {
	entries map[uint64]*modelEntry
	clock   clock
}

type modelEntry struct {
	hot bool
	val int
}

func (m *model) visit(h uint64) verdict {
	e, ok := m.entries[h]
	switch {
	case !ok:
		return gone
	case e.hot:
		e.hot = false
		return spared
	}
	return victim
}

// FuzzFlowTable runs a script of inserts, gets, sweeps whose victims are
// evicted or readmitted (a spill that failed), clears and restores
// (a clear, then adds that may name one hash twice: the last wins)
// against the map and clock the Table replaced. Byte 0 picks the limit;
// then each byte is an operation on a hash from a 64-hash universe whose
// members share their low bits in fours.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 0, 64, 128, 192, 1, 65, 129, 193, 2, 66, 130, 194, 3, 67})
	f.Add([]byte{1, 200, 201, 202, 203, 204, 205, 206, 207})
	f.Add([]byte{15, 0, 8, 16, 24, 32, 40, 48, 56, 1, 9, 17, 25, 33, 41, 49, 57, 2, 10, 18, 26, 34, 42, 50, 58, 3, 11, 19, 27, 35})
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 96, 1, 2, 3, 97, 98, 99, 100, 101, 102, 224, 225, 226, 227})
	f.Add([]byte{2, 0, 1, 2, 3, 4, 160, 161, 162, 163, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0xff, 0, 1, 2, 3, 4, 5, 6, 128, 65, 7, 0xff, 9, 8, 9, 10, 11, 12, 13, 132, 136, 8})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			t.Skip()
		}
		limit := int(script[0]%16) + 1
		script = script[1:]
		if len(script) > 512 {
			script = script[:512]
		}
		var tb Table[int]
		tb.SetLimit(limit)
		m := &model{entries: map[uint64]*modelEntry{}}
		hash := func(b byte) uint64 { return uint64(b%64)<<33 | uint64(b%4) }
		step := 0
		sweep := func(keep uint64, readmit bool) {
			want := m.clock.sweep(len(m.entries), limit, keep, m.visit)
			n := tb.Sweep(keep)
			if got := victims(&tb, n); !slices.Equal(got, want) {
				t.Fatalf("step %d: victims %v, the clock took %v", step, got, want)
			}
			if readmit {
				tb.Readmit()
				for _, h := range want {
					m.clock.add(h)
				}
				return
			}
			tb.Evict()
			for _, h := range want {
				delete(m.entries, h)
			}
		}
		for i := 0; i < len(script); i++ {
			step = i
			b := script[i]
			h := hash(b)
			switch b >> 6 {
			case 0: // insert (a new flow; touched on odd hashes), then the sweep an insert sets off
				if _, ok := m.entries[h]; ok {
					break
				}
				j := tb.Add(h)
				_, v := tb.At(j)
				*v = i
				m.entries[h] = &modelEntry{val: i}
				m.clock.add(h)
				if b%2 == 1 {
					tb.Touch(j)
					m.entries[h].hot = true
				}
				sweep(h, false)
			case 1: // get: a hit sets the bit
				e, ok := m.entries[h]
				j := tb.Find(h)
				if (j >= 0) != ok {
					t.Fatalf("step %d: Find(%x) = %d, the map has it: %v", i, h, j, ok)
				}
				if ok {
					tb.Touch(j)
					e.hot = true
				}
			case 2: // a sweep whose spill failed, or one that evicts
				sweep(h, b%4 == 0)
			case 3:
				tb.Reset()
				m.clock.reset()
				clear(m.entries)
				if b%2 == 0 {
					break // clear
				}
				// restore: the next few bytes name the image's hashes,
				// possibly one twice; the last value wins, the first
				// position stays.
				n := int(b>>1) % 8
				for k := 0; k < n && i+1 < len(script); k++ {
					i++
					rh := hash(script[i])
					j := tb.Find(rh)
					if j < 0 {
						j = tb.Add(rh)
						m.clock.add(rh)
					}
					_, v := tb.At(j)
					*v = i
					m.entries[rh] = &modelEntry{val: i}
				}
			}
			// Membership, values, bits and the ring itself match.
			if tb.Len() != len(m.entries) || !slices.Equal(ring(&tb), m.clock.ring) || tb.hand != m.clock.hand {
				t.Fatalf("step %d: ring %v hand %d; the clock's %v hand %d", i, ring(&tb), tb.hand, m.clock.ring, m.clock.hand)
			}
			for k := 0; k < 64; k++ {
				kh := hash(byte(k))
				e, ok := m.entries[kh]
				j := tb.Find(kh)
				if (j >= 0) != ok {
					t.Fatalf("step %d: Find(%x) = %d, the map has it: %v", i, kh, j, ok)
				}
				if ok {
					if _, v := tb.At(j); *v != e.val || tb.isHot(j) != e.hot {
						t.Fatalf("step %d: entry %x holds %d hot %v, the map %d hot %v", i, kh, *v, tb.isHot(j), e.val, e.hot)
					}
				}
			}
		}
	})
}
