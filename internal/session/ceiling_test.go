package session

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/maglev"
	"repro/internal/packet"
)

// sinkSpill is a Spill that keeps nothing, so a churning table's live
// heap is the table's own.
type sinkSpill struct{}

func (sinkSpill) SpillFlows([]SpillRecord) error               { return nil }
func (sinkSpill) LookupFlow(uint64) (SpillRecord, bool, error) { return SpillRecord{}, false, nil }
func (sinkSpill) FlowCount() (int, error)                      { return 0, nil }

// tableCeiling is DESIGN.md's memory ceiling of a capped flow table of
// entrySize-byte entries: the entries in 1024-entry chunks, an index of
// int32 positions at most 3/4 full, and one hot bit per entry, all sized
// for cap+1 (an insert lands before the sweep it sets off).
func tableCeiling(cap, entrySize int) int {
	chunks := (cap + 1 + 1023) / 1024
	slots := 8
	for slots*3/4 < cap+1 {
		slots *= 2
	}
	return chunks*1024*entrySize + 4*slots + chunks*1024/8
}

// liveHeap is the live heap after two collections: sync.Pool victims
// survive the first.
func liveHeap() int {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// TestCappedTablesHoldTheirCeiling churns a session table with a spill
// cap and a balancer at maglev.ConnTableSize through 1× (and the insert
// that sets off the first sweep) and then 10× their cap in distinct
// flows. Each table's live heap is the same after both and within the
// ceiling DESIGN.md states: a session entry is 56 bytes (the flow hash
// and its Flow inline), a connection 16, and past the entries only the
// index, the hot bits and, for session, one eviction batch of spill
// records.
func TestCappedTablesHoldTheirCeiling(t *testing.T) {
	if got := 8 + unsafe.Sizeof(Flow{}); got != 56 {
		t.Fatalf("a session entry is %d bytes, want 56", got)
	}
	const cap = maglev.ConnTableSize
	recBatch := (cap/8 + 1) * int(unsafe.Sizeof(SpillRecord{}))
	backends := lbBackends(8)
	if _, err := maglev.NewBalancer(backends, maglev.DefaultTableSize); err != nil {
		t.Fatal(err) // interns the lookup table the measured balancer shares
	}
	for _, c := range []struct {
		name    string
		ceiling int
		track   func(i int) func(i int)
	}{
		{"session", tableCeiling(cap, 56) + recBatch, func(int) func(int) {
			tbl := NewTable()
			tbl.SetSpill(sinkSpill{}, cap)
			return func(i int) { tbl.Track(flowTuple(i), packet.IPv4(0xc0a80001+uint32(i%8)), 64) }
		}},
		{"maglev", tableCeiling(cap, 16), func(int) func(int) {
			lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
			if err != nil {
				t.Fatal(err)
			}
			return func(i int) { lb.Pick(flowTuple(i)) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := liveHeap()
			track := c.track(0)
			i := 0
			for ; i <= cap; i++ {
				track(i)
			}
			once := liveHeap() - base
			for ; i < 10*cap; i++ {
				track(i)
			}
			tenfold := liveHeap() - base
			runtime.KeepAlive(track)
			t.Logf("%s: %d B live after %d flows, %d B after %d; ceiling %d B", c.name, once, cap+1, tenfold, 10*cap, c.ceiling)
			if d := tenfold - once; d > 8192 || d < -8192 { // under one chunk of either table
				t.Fatalf("live heap moved %+d B between 1x and 10x the cap", d)
			}
			if tenfold > c.ceiling+16384 {
				t.Fatalf("%d B live, over the ceiling of %d B", tenfold, c.ceiling)
			}
		})
	}
}
