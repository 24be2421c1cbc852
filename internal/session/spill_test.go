package session

import (
	"errors"
	"testing"

	"repro/internal/packet"
)

// memSpill is an in-memory Spill for unit-testing the cache machinery
// without touching disk.
type memSpill struct {
	flows map[uint64]SpillRecord
	fail  bool
	puts  int
}

func newMemSpill() *memSpill { return &memSpill{flows: map[uint64]SpillRecord{}} }

func (m *memSpill) SpillFlows(recs []SpillRecord) error {
	if m.fail {
		return errors.New("spill down")
	}
	m.puts++
	for _, r := range recs {
		m.flows[r.Hash] = r
	}
	return nil
}

func (m *memSpill) LookupFlow(hash uint64) (SpillRecord, bool, error) {
	if m.fail {
		return SpillRecord{}, false, errors.New("spill down")
	}
	r, ok := m.flows[hash]
	return r, ok, nil
}

func (m *memSpill) FlowCount() (int, error) {
	if m.fail {
		return 0, errors.New("spill down")
	}
	return len(m.flows), nil
}

func TestSpillEviction(t *testing.T) {
	sp := newMemSpill()
	tbl := NewTable()
	const cap = 32
	tbl.SetSpill(sp, cap)
	const flows = 200
	for i := 0; i < flows; i++ {
		tbl.Track(flowTuple(i), 0xc0a80001, 100)
	}
	if tbl.Len() > cap {
		t.Fatalf("RAM table has %d flows, cap %d", tbl.Len(), cap)
	}
	spilled, _, errs := tbl.SpillStats()
	if spilled == 0 || errs != 0 {
		t.Fatalf("spilled=%d errs=%d", spilled, errs)
	}
	// Every flow is reachable: RAM or index.
	for i := 0; i < flows; i++ {
		h := flowTuple(i).Hash()
		ip, ok := tbl.lookup(h)
		if !ok || ip != 0xc0a80001 {
			t.Fatalf("flow %d: %v, %v", i, ip, ok)
		}
	}
	total, err := tbl.totalFlows()
	if err != nil {
		t.Fatal(err)
	}
	if total != flows {
		t.Fatalf("TotalFlows = %d, want %d (no double counting)", total, flows)
	}
	// Eviction batches, not one write per insert.
	if sp.puts >= flows-cap {
		t.Fatalf("%d spill writes for %d evictions — not batched", sp.puts, flows-cap)
	}
}

func TestSpillPromotion(t *testing.T) {
	sp := newMemSpill()
	tbl := NewTable()
	tbl.SetSpill(sp, 16)
	for i := 0; i < 100; i++ {
		tbl.Track(flowTuple(i), packet.IPv4(0xc0a80001+uint32(i%2)), 50)
	}
	// Find an evicted flow and touch it again: it must come back with
	// its backend and counters.
	var victim uint64
	var want SpillRecord
	for h, r := range sp.flows {
		victim, want = h, r
		break
	}
	if victim == 0 && len(sp.flows) == 0 {
		t.Fatal("nothing evicted")
	}
	tbl.Track(want.Tuple, 0xdddddddd /* ignored: identity comes from the index */, 25)
	tbl.mu.Lock()
	f := tbl.flowsLocked()[victim]
	tbl.mu.Unlock()
	if f == nil {
		t.Fatal("victim not promoted")
	}
	if !f.Spilled {
		t.Fatal("promoted flow not marked Spilled")
	}
	if got := f.Backend.Get().IP; got != want.Backend {
		t.Fatalf("promoted backend %v, want %v (index identity wins)", got, want.Backend)
	}
	if f.Packets != want.Packets+1 || f.Bytes != want.Bytes+25 {
		t.Fatalf("promoted counters %d/%d, want continuation of %d/%d", f.Packets, f.Bytes, want.Packets, want.Bytes)
	}
	_, promoted, _ := tbl.SpillStats()
	if promoted == 0 {
		t.Fatal("promotion not counted")
	}
}

func TestSpillErrorDegradesGracefully(t *testing.T) {
	sp := newMemSpill()
	sp.fail = true
	tbl := NewTable()
	tbl.SetSpill(sp, 8)
	for i := 0; i < 50; i++ {
		tbl.Track(flowTuple(i), 0xc0a80001, 10)
	}
	// Evictions failed: the table runs over its cap but loses nothing.
	if tbl.Len() != 50 {
		t.Fatalf("RAM table has %d flows, want all 50 kept on spill failure", tbl.Len())
	}
	_, _, errs := tbl.SpillStats()
	if errs == 0 {
		t.Fatal("spill errors not counted")
	}
	for i := 0; i < 50; i++ {
		if ip, ok := tbl.lookup(flowTuple(i).Hash()); !ok || ip != 0xc0a80001 {
			t.Fatalf("flow %d lost on spill failure", i)
		}
	}
}

func TestNoSpillUnchanged(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 100; i++ {
		tbl.Track(flowTuple(i), 0xc0a80001, 10)
	}
	if tbl.Len() != 100 {
		t.Fatalf("unspilled table capped: %d", tbl.Len())
	}
	total, err := tbl.totalFlows()
	if err != nil || total != 100 {
		t.Fatalf("TotalFlows = %d, %v", total, err)
	}
	if _, ok := tbl.lookup(flowTuple(0).Hash()); !ok {
		t.Fatal("Lookup without spill broken")
	}
	if _, ok := tbl.lookup(12345); ok {
		t.Fatal("phantom flow")
	}
}

// backendCounts checks, for every interned backend, StrongCount ==
// resident flows naming it + the intern map's own handle.
func backendCounts(t *testing.T, tbl *Table, when string) {
	t.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	naming := map[packet.IPv4]int64{}
	for _, f := range tbl.flowsLocked() {
		naming[f.Backend.Peek().IP]++
	}
	for ip, rc := range tbl.intern {
		if got, want := rc.StrongCount(), naming[ip]+1; got != want {
			t.Fatalf("%s: backend %v has StrongCount %d, want %d resident flows + 1", when, ip, got, want)
		}
	}
}

// TestEvictionGivesBackTheBackendHandle: a flow leaving RAM drops the
// clone it took at Track, so the count follows the resident flows, not
// the flows ever seen (the parent read 1001 after the first loop: its Rc
// could not Drop). Promotion, restore and reset keep the same equation.
func TestEvictionGivesBackTheBackendHandle(t *testing.T) {
	tbl := NewTable()
	tbl.SetSpill(newMemSpill(), 16)
	for i := 0; i < 1000; i++ {
		tbl.Track(flowTuple(i), 0xc0a80001, 100)
		backendCounts(t, tbl, "track")
	}
	if n := tbl.Len(); n > 16 {
		t.Fatalf("%d resident flows over a cap of 16", n)
	}
	for i := 0; i < 1000; i += 7 { // promotions, each evicting in turn
		tbl.Track(flowTuple(i), 0xc0a80001, 100)
		backendCounts(t, tbl, "promote")
	}
	if _, promoted, _ := tbl.SpillStats(); promoted == 0 {
		t.Fatal("nothing was promoted; the second loop exercised nothing")
	}
	tok, err := tbl.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Restore(tok); err != nil {
		t.Fatal(err)
	}
	backendCounts(t, tbl, "restore")
	for i := 1000; i < 1100; i++ { // evictions out of the restored slab
		tbl.Track(flowTuple(i), 0xc0a80002, 100)
		backendCounts(t, tbl, "track after restore")
	}
	tbl.Reset()
	tbl.Track(flowTuple(0), 0xc0a80001, 100)
	backendCounts(t, tbl, "reset")
}
