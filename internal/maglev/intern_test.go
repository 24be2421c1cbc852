package maglev

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/packet"
)

// tableOf reads a balancer's current lookup table.
func tableOf(b *Balancer) *Table {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.table
}

// TestBalancersShareOneTable: balancers over equal (backends, size) hold
// one *Table — built once, whoever asks first — while a different set or
// size gets a table of its own, and a caller reusing its backend slice
// afterwards cannot reach into the shared one.
func TestBalancersShareOneTable(t *testing.T) {
	set := backends(8)
	a, err := NewBalancer(set, DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBalancer(backends(8), DefaultTableSize) // equal, not the same slice
	if err != nil {
		t.Fatal(err)
	}
	if tableOf(a) != tableOf(b) {
		t.Fatal("two balancers over one backend set built two tables")
	}
	other, err := NewBalancer(backends(7), DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	smaller, err := NewBalancer(set, 4099)
	if err != nil {
		t.Fatal(err)
	}
	if tableOf(other) == tableOf(a) || tableOf(smaller) == tableOf(a) {
		t.Fatal("a different backend set or size shares a table")
	}
	set[0].Name = "renamed-by-the-caller"
	if got := tableOf(a).backends[0].Name; got != "be-0" {
		t.Fatalf("the caller's slice reached the shared table: backend 0 is %q", got)
	}
	c, err := NewBalancer(set, DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	if tableOf(c) == tableOf(a) {
		t.Fatal("an edited backend set matched the table of the old one")
	}
}

// TestTableInternIsBounded: cycling through more backend sets than the
// intern holds keeps at most tablesMax tables, dropping the oldest — and
// a balancer holding a dropped table keeps using it.
func TestTableInternIsBounded(t *testing.T) {
	first, err := NewBalancer(backends(2), 101)
	if err != nil {
		t.Fatal(err)
	}
	for n := 3; n < 3+2*tablesMax; n++ {
		if _, err := NewBalancer(backends(n), 101); err != nil {
			t.Fatal(err)
		}
		tablesMu.Lock()
		held := len(tables)
		tablesMu.Unlock()
		if held > tablesMax {
			t.Fatalf("intern holds %d tables, bound %d", held, tablesMax)
		}
	}
	again, err := NewBalancer(backends(2), 101)
	if err != nil {
		t.Fatal(err)
	}
	if tableOf(again) == tableOf(first) {
		t.Fatal("the oldest table was never dropped")
	}
	flow := packet.FiveTuple{SrcIP: packet.Addr(1, 2, 3, 4), SrcPort: 9, DstPort: 80, Proto: packet.ProtoUDP}
	if first.Pick(flow) != again.Pick(flow) {
		t.Fatal("a rebuilt table steers differently from the dropped one")
	}
}

// TestUpdateBackendsLeavesOthersAlone: one balancer moving to a new set
// takes that set's table; a balancer that shared its old table keeps it.
func TestUpdateBackendsLeavesOthersAlone(t *testing.T) {
	a, err := NewBalancer(backends(4), 1009)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBalancer(backends(4), 1009)
	if err != nil {
		t.Fatal(err)
	}
	shared := tableOf(b)
	if err := a.UpdateBackends(backends(2)); err != nil {
		t.Fatal(err)
	}
	if tableOf(b) != shared || len(shared.backends) != 4 {
		t.Fatal("UpdateBackends on one balancer changed another's table")
	}
	if tableOf(a) == shared || len(tableOf(a).backends) != 2 {
		t.Fatal("UpdateBackends did not move its own balancer to the new set's table")
	}
	for h := uint64(0); h < 2000; h++ {
		if got := b.Pick(packet.FiveTuple{SrcIP: packet.IPv4(h), SrcPort: uint16(h), Proto: packet.ProtoTCP}); got.Name > "be-3" {
			t.Fatalf("b steered to %s, outside its own set", got.Name)
		}
	}
}

// TestSharedTableConcurrent: balancers built, updated and picked from
// at once over a handful of backend sets. Run under -race by `make race`:
// the intern and the shared tables must be safe to reach from every
// worker.
func TestSharedTableConcurrent(t *testing.T) {
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lb, err := NewBalancer(backends(3+w%3), 1009)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				if r%10 == 0 {
					if err := lb.UpdateBackends(backends(3 + (w+r)%4)); err != nil {
						t.Error(err)
						return
					}
				}
				be := lb.Pick(packet.FiveTuple{SrcIP: packet.Addr(10, 0, byte(w), byte(r)), SrcPort: uint16(r), Proto: packet.ProtoUDP})
				if be.Name == "" {
					t.Error("picked a backend with no name")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if len(tables) > tablesMax {
		t.Fatalf("intern holds %d tables, bound %d", len(tables), tablesMax)
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		key := fmt.Sprint(len(tbl.entries), tbl.backends)
		if seen[key] {
			t.Fatalf("intern holds two tables over %s", key)
		}
		seen[key] = true
	}
}
