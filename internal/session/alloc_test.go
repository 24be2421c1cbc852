package session

import (
	"testing"
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
// once the scratch slices and flow pool are warm, steady eviction churn
// (new cold flow in, cold victim out) must not allocate per tracked
// packet beyond map-internal churn. The budget is deliberately loose —
// Go map inserts after deletes occasionally grow — but catches a return
// to the two-fresh-slices-per-eviction behaviour.
func TestEvictionSteadyStateAllocs(t *testing.T) {
	sp := newMemSpill()
	tbl := NewTable()
	tbl.SetSpill(sp, 64)
	next := 0
	for i := 0; i < 500; i++ { // warm: populate, grow scratch, fill pool
		tbl.Track(flowTuple(next), 0xc0a80001, 100)
		next++
	}
	allocs := testing.AllocsPerRun(2000, func() {
		tbl.Track(flowTuple(next), 0xc0a80001, 100)
		next++
	})
	if allocs > 0.5 {
		t.Fatalf("steady eviction churn allocates %.2f objects per Track, want < 0.5", allocs)
	}
}
