package evict

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSurplus(t *testing.T) {
	for _, c := range []struct{ resident, limit, want int }{
		{0, 8, 0}, {8, 8, 0}, {9, 8, 2}, {20, 8, 13}, {2, 1, 1}, {16385, 16384, 2049}, {100, 0, 0},
	} {
		if got := surplus(c.resident, c.limit); got != c.want {
			t.Errorf("surplus(%d, %d) = %d, want %d", c.resident, c.limit, got, c.want)
		}
	}
}

// ring returns the table's hashes in ring order.
func ring[V any](t *Table[V]) []uint64 {
	out := make([]uint64, t.Len())
	for i := range out {
		out[i], _ = t.At(i)
	}
	return out
}

// victims returns the last sweep's victims in the order the hand took
// them.
func victims[V any](t *Table[V], n int) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k], _ = t.Victim(k)
	}
	return out
}

// TestSweepSecondChance: hot entries are spared once and their bits
// cleared, keep is always spared, each victim is replaced by the last
// resident entry, and a table of nothing but hot entries still yields
// victims on the second pass.
func TestSweepSecondChance(t *testing.T) {
	var tb Table[int]
	tb.SetLimit(8)
	for h := uint64(1); h <= 10; h++ {
		i := tb.Add(h)
		if h%2 == 0 { // even hashes are hot
			tb.Touch(i)
		}
	}
	// 10 resident over a limit of 8: down to 7 is 3 victims. The hand
	// spares 1 (keep) and 2, takes 3 (10 takes its place), spares 10 and
	// 4, takes 5 (9 takes its place) and then 9 (8 takes its place).
	n := tb.Sweep(1)
	if got := victims(&tb, n); !slices.Equal(got, []uint64{3, 5, 9}) {
		t.Fatalf("victims %v, want 3 5 9", got)
	}
	tb.Evict()
	if got := ring(&tb); !slices.Equal(got, []uint64{1, 2, 10, 4, 8, 6, 7}) {
		t.Fatalf("ring %v, want 1 2 10 4 8 6 7: each leaver replaced by the last entry", got)
	}
	for h, want := range map[uint64]bool{2: false, 10: false, 4: false, 8: true, 6: true} {
		if i := tb.Find(h); tb.isHot(i) != want {
			t.Fatalf("entry %d has its bit %v, want %v", h, tb.isHot(i), want)
		}
	}
	for _, h := range []uint64{3, 5, 9} {
		if tb.Find(h) >= 0 {
			t.Fatalf("evicted entry %d still found", h)
		}
	}
	if got := tb.Sweep(1); got != 0 {
		t.Fatalf("a table at 7/8 of its limit swept %d", got)
	}

	var all Table[int]
	all.SetLimit(2)
	for h := uint64(1); h <= 4; h++ {
		all.Touch(all.Add(h))
	}
	if got := all.Sweep(0); got != 2 {
		t.Fatalf("all hot: %d victims, want 2 on the second pass", got)
	}
	all.Evict()
	all.Reset()
	if got := all.Sweep(0); got != 0 || all.Len() != 0 {
		t.Fatalf("empty table swept %d", got)
	}
}

// TestReadmitKeepsTheHandsOrder: victims readmitted after a failed spill
// return, cold, to the end of the ring in the order the hand took them,
// where the clock they replace appended them.
func TestReadmitKeepsTheHandsOrder(t *testing.T) {
	var tb Table[int]
	tb.SetLimit(8)
	for h := uint64(1); h <= 10; h++ {
		_, v := tb.At(tb.Add(h))
		*v = int(h) * 10
		if h%2 == 0 {
			tb.Touch(tb.Find(h))
		}
	}
	if n := tb.Sweep(1); n != 3 {
		t.Fatalf("%d victims, want 3", n)
	}
	tb.Readmit()
	if got := ring(&tb); !slices.Equal(got, []uint64{1, 2, 10, 4, 8, 6, 7, 3, 5, 9}) {
		t.Fatalf("ring %v after Readmit, want the victims 3 5 9 at the end", got)
	}
	for h := uint64(1); h <= 10; h++ {
		i := tb.Find(h)
		if _, v := tb.At(i); *v != int(h)*10 {
			t.Fatalf("entry %d holds %d after Readmit", h, *v)
		}
		if h == 3 || h == 5 || h == 9 {
			if tb.isHot(i) {
				t.Fatalf("readmitted entry %d is hot", h)
			}
		}
	}
}

// TestResetParksTheHand: Reset on a table whose hand has moved empties it
// and parks the hand, so a table rebuilt through Reset and Add (a session
// or maglev Restore) holds exactly the hashes it added, and its first
// sweep starts at the first of them.
func TestResetParksTheHand(t *testing.T) {
	var tb Table[int]
	tb.SetLimit(8)
	for h := uint64(1); h <= 9; h++ {
		i := tb.Add(h)
		if h <= 3 { // 1, 2, 3 hot: the hand passes them to take 4
			tb.Touch(i)
		}
	}
	// 4 leaves and 9 takes its slot under the hand, and leaves too.
	if n := tb.Sweep(0); !slices.Equal(victims(&tb, n), []uint64{4, 9}) || tb.hand != 3 {
		t.Fatalf("victims %v with the hand at %d, want 4 9 at 3", victims(&tb, n), tb.hand)
	}
	tb.Evict()
	tb.Reset()
	if tb.hand != 0 || tb.Len() != 0 || tb.Find(1) >= 0 {
		t.Fatalf("after Reset: hand %d, %d entries", tb.hand, tb.Len())
	}
	want := []uint64{10, 11, 12, 13, 14, 15, 16, 17, 18}
	for _, h := range want {
		tb.Add(h)
	}
	if got := ring(&tb); !slices.Equal(got, want) {
		t.Fatalf("ring %v after Reset and Add, want %v", got, want)
	}
	if n := tb.Sweep(0); n == 0 || victims(&tb, n)[0] != want[0] {
		t.Fatalf("first sweep after Reset took %v, want %d first", victims(&tb, n), want[0])
	}
}

// TestIndexFollowsEveryMove: a large churning table with no limit, then
// one with a small limit, finds every resident hash and none of the
// others after every operation that moves entries (growth, sweeps,
// evictions, readmits), including hashes that share their low bits.
func TestIndexFollowsEveryMove(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb Table[uint64]
	live := map[uint64]bool{}
	check := func(when string) {
		t.Helper()
		if tb.Len() != len(live) {
			t.Fatalf("%s: %d entries, want %d", when, tb.Len(), len(live))
		}
		for i := 0; i < tb.Len(); i++ {
			h, v := tb.At(i)
			if !live[h] || *v != h || tb.Find(h) != i {
				t.Fatalf("%s: position %d holds %x (value %x), found at %d", when, i, h, *v, tb.Find(h))
			}
		}
	}
	hash := func(k int) uint64 { return uint64(k)<<40 | uint64(k%3) } // low bits collide
	for k := 0; k < 5000; k++ {
		h := hash(k)
		_, v := tb.At(tb.Add(h))
		*v = h
		live[h] = true
	}
	check("after growth")
	tb.SetLimit(600)
	for k := 5000; k < 20000; k++ {
		h := hash(k)
		if i := tb.Find(h); i >= 0 {
			tb.Touch(i)
			continue
		}
		_, v := tb.At(tb.Add(h))
		*v = h
		live[h] = true
		if i := tb.Find(hash(rng.Intn(k))); i >= 0 {
			tb.Touch(i)
		}
		n := tb.Sweep(h)
		if n == 0 {
			continue
		}
		if rng.Intn(8) == 0 {
			tb.Readmit()
		} else {
			for j := 0; j < n; j++ {
				vh, _ := tb.Victim(j)
				delete(live, vh)
			}
			tb.Evict()
		}
		if k%997 == 0 {
			check("under churn")
		}
	}
	check("after churn")
}
