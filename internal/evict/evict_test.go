package evict

import (
	"slices"
	"testing"
)

func TestSurplus(t *testing.T) {
	for _, c := range []struct{ resident, limit, want int }{
		{0, 8, 0}, {8, 8, 0}, {9, 8, 2}, {20, 8, 13}, {2, 1, 1}, {16385, 16384, 2049},
	} {
		if got := surplus(c.resident, c.limit); got != c.want {
			t.Errorf("surplus(%d, %d) = %d, want %d", c.resident, c.limit, got, c.want)
		}
	}
}

// table is a map of hash → hot bit answering the clock the way the flow
// tables do.
type table map[uint64]bool

func (tb table) visit(h uint64) Verdict {
	hot, ok := tb[h]
	switch {
	case !ok:
		return Gone
	case hot:
		tb[h] = false
		return Spared
	}
	return Victim
}

// TestSweepSecondChance: hot entries are spared once and their bits
// cleared, gone hashes leave the ring, keep is never asked about, and a
// ring of nothing but hot entries still yields victims on the second
// pass.
func TestSweepSecondChance(t *testing.T) {
	var c Clock
	tb := table{}
	for h := uint64(1); h <= 8; h++ {
		c.Add(h)
		tb[h] = h%2 == 0 // even hashes are hot
	}
	c.Add(99) // names no entry
	if got := c.Sweep(8, 8, 1, tb.visit); got != nil || c.hand != 0 {
		t.Fatalf("a table at its cap swept %v", got)
	}
	// 10 resident over a cap of 8: down to 7 is 3 victims.
	victims := c.Sweep(10, 8, 1, func(h uint64) Verdict {
		if h == 1 {
			t.Fatal("asked about the kept entry")
		}
		return tb.visit(h)
	})
	if !slices.Equal(victims, []uint64{3, 5, 7}) {
		t.Fatalf("victims %v, want the cold entries 3, 5, 7", victims)
	}
	if got := c.Hashes(); !slices.Equal(got, []uint64{1, 2, 8, 4, 6}) {
		t.Fatalf("ring %v, want 1 2 8 4 6: each leaver replaced by the last hash", got)
	}
	// The hand passed 2, 8 (swapped into 3's slot behind the gone hash)
	// and 4, and stopped before 6.
	for h, want := range map[uint64]bool{2: false, 8: false, 4: false, 6: true} {
		if tb[h] != want {
			t.Fatalf("hot entry %d has its bit %v, want %v", h, tb[h], want)
		}
	}

	var all Clock
	hot := table{}
	for h := uint64(1); h <= 4; h++ {
		all.Add(h)
		hot[h] = true
	}
	if got := all.Sweep(4, 2, 0, hot.visit); len(got) != 2 {
		t.Fatalf("all hot: %d victims, want 2 on the second pass", len(got))
	}
	all.Reset()
	if got := all.Sweep(4, 2, 0, hot.visit); len(got) != 0 || len(all.Hashes()) != 0 {
		t.Fatalf("empty clock swept %v", got)
	}
}

// TestResetParksTheHand: Reset on a clock whose hand has moved empties the
// ring and parks the hand, so a table rebuilt through Reset and Add (a
// session or maglev Restore) holds exactly the hashes it added, and its
// first sweep starts at the first of them.
func TestResetParksTheHand(t *testing.T) {
	var c Clock
	tb := table{}
	for h := uint64(1); h <= 8; h++ {
		c.Add(h)
		tb[h] = h <= 3 // 1, 2, 3 hot: the hand passes them to take 4
	}
	// 4 leaves and 8 takes its slot under the hand, and leaves too.
	if got := c.Sweep(9, 8, 0, tb.visit); !slices.Equal(got, []uint64{4, 8}) || c.hand != 3 {
		t.Fatalf("victims %v with the hand at %d, want 4 8 at 3", got, c.hand)
	}
	c.Reset()
	if c.hand != 0 || len(c.ring) != 0 {
		t.Fatalf("after Reset: hand %d, ring %v", c.hand, c.ring)
	}
	want := []uint64{10, 11, 12, 13, 14, 15, 16, 17}
	for _, h := range want {
		c.Add(h)
		tb[h] = false
	}
	if !slices.Equal(c.ring, want) {
		t.Fatalf("ring %v after Reset and Add, want %v", c.ring, want)
	}
	var visited []uint64
	c.Sweep(9, 8, 0, func(h uint64) Verdict {
		visited = append(visited, h)
		return tb.visit(h)
	})
	if len(visited) == 0 || visited[0] != want[0] {
		t.Fatalf("first sweep after Reset visited %v, want %d first", visited, want[0])
	}
}
