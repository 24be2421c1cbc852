package session

// moved_test.go runs packets through a real maglev.Balancer into the
// table, the order the pipeline's stages run them, to check what Moved
// counts: a flow whose backend changed under it, and nothing else.

import (
	"fmt"
	"testing"

	"repro/internal/maglev"
	"repro/internal/packet"
)

func lbBackends(n int) []maglev.Backend {
	out := make([]maglev.Backend, n)
	for i := range out {
		out[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	return out
}

// steer sends one packet of flow i through the balancer and into the
// table, and returns the backend it went to.
func steer(lb *maglev.Balancer, tbl *Table, i int) packet.IPv4 {
	tu := flowTuple(i)
	ip := lb.Pick(tu).IP
	tbl.Track(tu, ip, 64)
	return ip
}

// TestEvictionChurnMovesNothing: with the backend set unchanged, a flow
// the balancer evicted is re-hashed to the backend it had, so churn of
// many times the balancer's cap moves no packet.
func TestEvictionChurnMovesNothing(t *testing.T) {
	lb, err := maglev.NewBalancer(lbBackends(8), maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable()
	const flows = 2 * maglev.ConnTableSize
	for round := 0; round < 3; round++ {
		for i := 0; i < flows; i++ {
			steer(lb, tbl, i)
		}
	}
	if _, misses := lb.Stats(); lb.Evictions() == 0 || misses <= flows {
		t.Fatalf("%d evictions, %d misses for %d flows: no flow came back after an eviction", lb.Evictions(), misses, flows)
	}
	if got := tbl.Moved(); got != 0 {
		t.Fatalf("%d packets moved with the backend set unchanged", got)
	}
}

// TestIdleFlowEvictedAfterUpdateMoves: a flow that goes idle across
// UpdateBackends loses its connection to eviction churn, and its next
// packet is re-hashed by the new set's table. Where that is another
// backend, the table counts it as moved.
func TestIdleFlowEvictedAfterUpdateMoves(t *testing.T) {
	lb, err := maglev.NewBalancer(lbBackends(6), maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable()
	const idle = 512
	first := make([]packet.IPv4, idle)
	for i := range first {
		first[i] = steer(lb, tbl, i)
	}
	if err := lb.UpdateBackends(lbBackends(4)); err != nil {
		t.Fatal(err)
	}
	for i := idle; i < idle+2*maglev.ConnTableSize; i++ {
		steer(lb, tbl, i)
	}
	if got := tbl.Moved(); got != 0 {
		t.Fatalf("%d packets of new flows counted as moved", got)
	}
	want := uint64(0)
	for i, ip := range first {
		if steer(lb, tbl, i) != ip {
			want++
		}
	}
	if want == 0 {
		t.Fatal("every idle flow came back to its backend: none was evicted, or none could move")
	}
	if got := tbl.Moved(); got != want {
		t.Fatalf("Moved = %d, %d idle flows came back on another backend", got, want)
	}
}
