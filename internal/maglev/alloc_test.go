package maglev

import (
	"testing"

	"repro/internal/packet"
)

// TestAllocsPick pins the per-packet balancing cost: picking a backend
// for a flow already in the connection table (steady state) must not
// allocate.
func TestAllocsPick(t *testing.T) {
	backends := []Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
	lb, err := NewBalancer(backends, DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	tu := packet.FiveTuple{
		SrcIP: packet.Addr(192, 168, 0, 1), DstIP: packet.Addr(10, 0, 0, 1),
		SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP,
	}
	first := lb.Pick(tu) // miss path: inserts into the connection table
	if allocs := testing.AllocsPerRun(1000, func() {
		if be := lb.Pick(tu); be != first {
			t.Fatal("connection table lost affinity")
		}
	}); allocs != 0 {
		t.Fatalf("Pick hit allocates %.1f objects per call, want 0", allocs)
	}
}
