package maglev

// evict_test.go holds the connection table to ConnTableSize: the cap and
// the checkpoint bound it implies, the clock sparing flows that keep
// sending, stickiness across a backend change under eviction churn, and
// a token from over the cap.

import (
	"encoding/binary"
	"testing"
)

// TestConnTableIsCapped: ten times the cap in distinct flows leaves at
// most ConnTableSize connections, a checkpoint no larger than a full
// table's, and connBytes equal to the image a checkpoint writes.
func TestConnTableIsCapped(t *testing.T) {
	lb, err := NewBalancer(backends(8), DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 10 * ConnTableSize
	bound := balancerHeaderSize + ConnTableSize*(connFixedSize+len("be-0"))
	for i := 0; i < flows; i++ {
		lb.Pick(testTuple(i))
		if n := lb.ConnCount(); n > ConnTableSize {
			t.Fatalf("after %d flows the table holds %d connections, cap %d", i+1, n, ConnTableSize)
		}
		if i%1000 == 0 && lb.CheckpointSize() > bound {
			t.Fatalf("after %d flows a checkpoint is %d bytes, bound %d", i+1, lb.CheckpointSize(), bound)
		}
	}
	if got := lb.Evictions(); got != uint64(flows-lb.ConnCount()) {
		t.Fatalf("%d evictions; %d flows of which %d are resident", got, flows, lb.ConnCount())
	}
	if lb.ConnCount() < ConnTableSize-ConnTableSize/8 {
		t.Fatalf("%d connections: a sweep went below 7/8 of the cap", lb.ConnCount())
	}
	image, err := lb.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(image) != lb.CheckpointSize() || len(image) > bound {
		t.Fatalf("image is %d bytes, CheckpointSize %d, bound %d", len(image), lb.CheckpointSize(), bound)
	}
}

// TestConnEvictionSparesHotFlows is session's TestEvictionSparesHotFlows
// for the balancer: a small hot set picked every round stays in the
// connection table through churn of many times the cap in cold flows.
func TestConnEvictionSparesHotFlows(t *testing.T) {
	lb, err := NewBalancer(backends(8), DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	const hotFlows, coldPerRound = 8, 1024
	cold := hotFlows
	for round := 0; round < 10*ConnTableSize/coldPerRound; round++ {
		for i := 0; i < hotFlows; i++ {
			lb.Pick(testTuple(i))
		}
		for i := 0; i < coldPerRound; i++ {
			lb.Pick(testTuple(cold))
			cold++
		}
	}
	if lb.Evictions() == 0 {
		t.Fatal("no evictions happened; the test exercised nothing")
	}
	for i := 0; i < hotFlows; i++ {
		if !lb.hasConn(testTuple(i).Hash()) {
			t.Errorf("hot flow %d was evicted", i)
		}
	}
}

// TestStickyAcrossUpdateUnderChurn: flows that keep sending keep their
// backend across UpdateBackends while the table evicts many times over —
// including flows the new set's table would send elsewhere.
func TestStickyAcrossUpdateUnderChurn(t *testing.T) {
	lb, err := NewBalancer(backends(6), DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	const live = 256
	want := make([]Backend, live)
	for i := range want {
		want[i] = lb.Pick(testTuple(i))
	}
	if err := lb.UpdateBackends(backends(4)); err != nil {
		t.Fatal(err)
	}
	elsewhere := 0
	for i := range want {
		if tableOf(lb).lookup(testTuple(i).Hash()) != want[i] {
			elsewhere++
		}
	}
	if elsewhere == 0 {
		t.Fatal("the new set steers every live flow where it was: the test exercises nothing")
	}
	cold := live
	for round := 0; round < 64; round++ {
		for i := range want {
			if got := lb.Pick(testTuple(i)); got != want[i] {
				t.Fatalf("round %d: flow %d moved from %+v to %+v", round, i, want[i], got)
			}
		}
		for i := 0; i < ConnTableSize/8; i++ {
			lb.Pick(testTuple(cold))
			cold++
		}
	}
	if lb.Evictions() < 2*ConnTableSize {
		t.Fatalf("%d evictions: the churn did not cycle the table", lb.Evictions())
	}
}

// TestTokenOverTheCapRestoresWhole: a v1 token with more connections than
// the cap (from a build without one) restores every connection, and the
// next insert sweeps the table back to 7/8 of the cap, keeping itself.
func TestTokenOverTheCapRestoresWhole(t *testing.T) {
	bs := backends(4)
	const n = ConnTableSize + 3000
	tok := []byte{balancerTokenVersion}
	tok = binary.LittleEndian.AppendUint64(tok, 7)
	tok = binary.LittleEndian.AppendUint64(tok, n)
	tok = binary.LittleEndian.AppendUint32(tok, n)
	for i := 0; i < n; i++ {
		be := bs[i%len(bs)]
		tok = binary.LittleEndian.AppendUint64(tok, testTuple(i).Hash())
		tok = binary.LittleEndian.AppendUint32(tok, uint32(be.IP))
		tok = binary.LittleEndian.AppendUint16(tok, uint16(len(be.Name)))
		tok = append(tok, be.Name...)
	}
	lb, err := NewBalancer(bs, DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Restore(tok); err != nil {
		t.Fatal(err)
	}
	if lb.ConnCount() != n || lb.CheckpointSize() != len(tok) {
		t.Fatalf("restored %d connections (%d B), the token holds %d (%d B)", lb.ConnCount(), lb.CheckpointSize(), n, len(tok))
	}
	for i := 0; i < n; i += 997 {
		if got := lb.Pick(testTuple(i)); got != bs[i%len(bs)] {
			t.Fatalf("restored flow %d picks %+v, the token says %+v", i, got, bs[i%len(bs)])
		}
	}
	if lb.ConnCount() != n || lb.Evictions() != 0 {
		t.Fatalf("hits on restored flows changed the table: %d connections, %d evictions", lb.ConnCount(), lb.Evictions())
	}
	fresh := testTuple(n)
	lb.Pick(fresh)
	target := ConnTableSize - ConnTableSize/8
	if lb.ConnCount() != target || lb.Evictions() != uint64(n+1-target) {
		t.Fatalf("after one insert: %d connections, %d evictions; want %d, %d", lb.ConnCount(), lb.Evictions(), target, n+1-target)
	}
	if !lb.hasConn(fresh.Hash()) {
		t.Fatal("the sweep evicted the connection just inserted")
	}
	image, err := lb.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(image) != lb.CheckpointSize() {
		t.Fatalf("image is %d bytes, CheckpointSize %d", len(image), lb.CheckpointSize())
	}
}

// TestSweepAllocatesNothing: one run is ConnTableSize/8+1 new flows into a
// full table, the distance between two sweeps, so every run holds exactly
// one eviction sweep. Allocations per run are counted whole, so a sweep
// that allocated even once would read 1 here where BenchmarkPickChurn's
// allocs/op, spread over the inserts between sweeps, rounds it to 0.
func TestSweepAllocatesNothing(t *testing.T) {
	lb, err := NewBalancer(backends(16), DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for ; next < 8*ConnTableSize; next++ {
		lb.Pick(testTuple(next))
	}
	const runs = 20
	before := lb.Evictions()
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i <= ConnTableSize/8; i++ {
			lb.Pick(testTuple(next))
			next++
		}
	})
	if sweeps := (lb.Evictions() - before) / (ConnTableSize/8 + 1); sweeps != runs+1 {
		t.Fatalf("%d sweeps in %d runs, want one each", sweeps, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations per sweep and its inserts, want 0", allocs)
	}
}

// BenchmarkPickChurn: every op is a new flow into a full table, so one op
// in ConnTableSize/8 runs an eviction sweep. After the warm-up grows the
// map and ring to their steady sizes, `make alloc-gate` holds the insert
// path to 0 allocs/op; TestSweepAllocatesNothing holds the sweep.
func BenchmarkPickChurn(b *testing.B) {
	lb, err := NewBalancer(backends(16), DefaultTableSize)
	if err != nil {
		b.Fatal(err)
	}
	const warm = 8 * ConnTableSize
	for i := 0; i < warm; i++ {
		lb.Pick(testTuple(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.Pick(testTuple(warm + i))
	}
}
