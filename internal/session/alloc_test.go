package session

import (
	"testing"

	"repro/internal/packet"
)

// TestAllocsTrackHit pins the per-packet session cost: tracking a packet
// for a flow the table already holds (the overwhelmingly common case at
// steady state) must not allocate — the floor the pipeline alloc gate
// depends on.
func TestAllocsTrackHit(t *testing.T) {
	tbl := NewTable()
	tu := flowTuple(7)
	tbl.Track(tu, tu.DstIP, 100) // first sight: allocates the Flow
	if allocs := testing.AllocsPerRun(1000, func() {
		tbl.Track(tu, tu.DstIP, 100)
	}); allocs != 0 {
		t.Fatalf("Track hit allocates %.1f objects per call, want 0", allocs)
	}
}

// TestEvictionSparesHotFlows proves the clock-hand policy evicts the
// cold tail: a small hot set touched every round must stay resident
// through heavy cold-flow churn (the map-iteration-order policy it
// replaces spilled hot flows with probability proportional to their
// share of the table).
func TestEvictionSparesHotFlows(t *testing.T) {
	sp := newMemSpill()
	tbl := NewTable()
	tbl.SetSpill(sp, 64)

	const hotFlows = 8
	cold := hotFlows
	for round := 0; round < 50; round++ {
		for i := 0; i < hotFlows; i++ {
			tbl.Track(flowTuple(i), 0xc0a80001, 100)
		}
		for i := 0; i < 24; i++ {
			tbl.Track(flowTuple(cold), 0xc0a80001, 100)
			cold++
		}
	}

	spilled, _, errs := tbl.SpillStats()
	if errs != 0 {
		t.Fatalf("spill errors: %d", errs)
	}
	if spilled == 0 {
		t.Fatal("no evictions happened; the test exercised nothing")
	}
	entries := tbl.Entries()
	for i := 0; i < hotFlows; i++ {
		if _, ok := entries[flowTuple(i).Hash()]; !ok {
			t.Errorf("hot flow %d was evicted from RAM", i)
		}
	}
}

// TestEvictionSteadyStateAllocs pins the eviction machinery's own cost:
// once the table has filled to its cap, steady eviction churn (new cold
// flow in, cold victims out to the index) allocates nothing. The count
// is whole, over 2000 tracks and the 222 sweeps among them, into an
// index that keeps nothing (sinkSpill), so a single allocation anywhere
// in Track, the sweep or the spill batch fails it. It was < 0.5 objects
// per Track while flows lived in a Go map, whose inserts after deletes
// occasionally grew it.
func TestEvictionSteadyStateAllocs(t *testing.T) {
	tbl := NewTable()
	tbl.SetSpill(sinkSpill{}, 64)
	next := 0
	for i := 0; i < 500; i++ { // warm: fill to the cap and sweep
		tbl.Track(flowTuple(next), 0xc0a80001, 100)
		next++
	}
	before, _, _ := tbl.SpillStats()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			tbl.Track(flowTuple(next), 0xc0a80001, 100)
			next++
		}
	})
	if spilled, _, _ := tbl.SpillStats(); spilled-before < 2000 {
		t.Fatalf("%d flows spilled over two runs of 2000 new flows: the churn did not evict", spilled-before)
	}
	if allocs != 0 {
		t.Fatalf("2000 tracks of steady eviction churn allocate %.0f objects, want 0", allocs)
	}
}

// BenchmarkTrackChurn is maglev's BenchmarkPickChurn for the session
// table: every op is a new flow into a table full at its spill cap, so
// one op in cap/8 runs an eviction sweep and spills its victims. `make
// alloc-gate` holds it to 0 allocs/op.
func BenchmarkTrackChurn(b *testing.B) {
	const cap = 1 << 14
	tbl := NewTable()
	tbl.SetSpill(sinkSpill{}, cap)
	const warm = 8 * cap
	for i := 0; i < warm; i++ {
		tbl.Track(flowTuple(i), packet.IPv4(0xc0a80001+uint32(i%8)), 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Track(flowTuple(warm+i), packet.IPv4(0xc0a80001+uint32(i%8)), 64)
	}
}
