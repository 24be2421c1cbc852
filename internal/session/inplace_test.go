package session

// inplace_test.go holds Restore's rebuild-in-place to the fresh-graph
// Restore it replaced, which stays here as the oracle, and pins what a
// restore onto a populated table may allocate.

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linear"
	"repro/internal/packet"
)

// restoreFresh is the Restore that rebuild-in-place replaced, in the
// flow table's terms: decode into a new intern map, a new box per
// distinct backend, and flows added to the emptied table in the image's
// order.
func restoreFresh(t *Table, data []byte) error {
	n, err := checkToken(data)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.intern = make(map[packet.IPv4]linear.Rc[Backend])
	t.flows.Reset()
	for i := 0; i < n; i++ {
		e := data[sessionHeaderSize+i*sessionEntrySize:]
		_, f := t.flows.At(t.flows.Add(binary.LittleEndian.Uint64(e)))
		f.Tuple = packet.FiveTuple{
			SrcIP:   packet.IPv4(binary.LittleEndian.Uint32(e[8:])),
			DstIP:   packet.IPv4(binary.LittleEndian.Uint32(e[12:])),
			SrcPort: binary.LittleEndian.Uint16(e[16:]),
			DstPort: binary.LittleEndian.Uint16(e[18:]),
			Proto:   e[20],
		}
		f.Spilled = e[21] == 1
		f.Packets = binary.LittleEndian.Uint64(e[26:])
		f.Bytes = binary.LittleEndian.Uint64(e[34:])
		ip := packet.IPv4(binary.LittleEndian.Uint32(e[22:]))
		rc, seen := t.intern[ip]
		if !seen {
			rc = linear.NewRc(Backend{IP: ip})
			t.intern[ip] = rc
		}
		f.Backend = rc.Clone()
	}
	return nil
}

// sameTable compares everything a restore must bring back: identity,
// counters, Spilled bits, the ring order, and one Rc box per backend
// with a strong count of its flows plus the intern map's handle.
func sameTable(t *testing.T, got, want *Table) {
	t.Helper()
	got.mu.Lock()
	defer got.mu.Unlock()
	want.mu.Lock()
	defer want.mu.Unlock()
	gotFlows, wantFlows := got.flowsLocked(), want.flowsLocked()
	if len(gotFlows) != len(wantFlows) {
		t.Fatalf("%d flows, oracle %d", len(gotFlows), len(wantFlows))
	}
	perBackend := map[packet.IPv4]int64{}
	for h, wf := range wantFlows {
		gf, ok := gotFlows[h]
		if !ok {
			t.Fatalf("flow %x missing", h)
		}
		if gf.Tuple != wf.Tuple || gf.Packets != wf.Packets || gf.Bytes != wf.Bytes || gf.Spilled != wf.Spilled {
			t.Fatalf("flow %x = %+v, oracle %+v", h, *gf, *wf)
		}
		ip := wf.Backend.Get().IP
		if gf.Backend.Get().IP != ip {
			t.Fatalf("flow %x → %v, oracle %v", h, gf.Backend.Get().IP, ip)
		}
		if !gf.Backend.SameBox(got.intern[ip]) {
			t.Fatalf("flow %x holds a backend box of its own, not the interned one", h)
		}
		perBackend[ip]++
	}
	if len(got.intern) != len(want.intern) || len(got.intern) != len(perBackend) {
		t.Fatalf("%d interned backends, oracle %d, flows use %d", len(got.intern), len(want.intern), len(perBackend))
	}
	for ip, n := range perBackend {
		if g, w := got.intern[ip].StrongCount(), want.intern[ip].StrongCount(); g != w || g != n+1 {
			t.Fatalf("backend %v: strong count %d, oracle %d, want flows+1 = %d", ip, g, w, n+1)
		}
	}
	for i := 0; i < got.flows.Len(); i++ {
		gh, _ := got.flows.At(i)
		wh, _ := want.flows.At(i)
		if gh != wh {
			t.Fatalf("ring position %d holds %x, oracle %x", i, gh, wh)
		}
	}
}

// TestRestoreInPlaceMatchesFreshGraph restores a sequence of tokens of
// varying size onto one long-lived table — populated, spilling, holding
// the entries of the restore before — and onto the oracle, and requires
// the two to agree after every restore, with traffic in between that
// evicts restored flows and re-admits flows from the index.
func TestRestoreInPlaceMatchesFreshGraph(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := NewTable(), NewTable()
		got.SetSpill(newMemSpill(), 96)
		want.SetSpill(newMemSpill(), 96)
		for step := 0; step < 12; step++ {
			// A source table of random size and backend spread, some of
			// its flows promoted back from a spill index (Spilled set).
			src := NewTable()
			src.SetSpill(newMemSpill(), 64)
			base := rng.Intn(1000)
			for i, n := 0, 1+rng.Intn(200); i < n; i++ {
				src.Track(flowTuple(base+rng.Intn(150)), packet.IPv4(0xc0a80001+uint32(rng.Intn(5))), 60+rng.Intn(40))
			}
			tok, err := src.AppendCheckpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Restore(tok); err != nil {
				t.Fatal(err)
			}
			if err := restoreFresh(want, tok); err != nil {
				t.Fatal(err)
			}
			sameTable(t, got, want)
			// Live traffic between restores: new flows, evictions of
			// restored flows, promotions out of the index. The next
			// restore has to bring the two back together from whatever
			// this left behind.
			for i, n := 0, rng.Intn(300); i < n; i++ {
				tu, ip := flowTuple(base+rng.Intn(400)), packet.IPv4(0xc0a80001+uint32(rng.Intn(5)))
				got.Track(tu, ip, 64)
				want.Track(tu, ip, 64)
			}
		}
	}
}

// TestRestoreBadTokenLeavesTableUntouched: the token is checked whole
// before the first live entry is cleared.
func TestRestoreBadTokenLeavesTableUntouched(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 20; i++ {
		tbl.Track(flowTuple(i), 0xc0a80001, 100)
	}
	tok, _ := tbl.AppendCheckpoint(nil)
	before := tbl.Entries()
	for _, bad := range [][]byte{nil, {9}, tok[:len(tok)-1], append(slices.Clone(tok), 0)} {
		if err := tbl.Restore(bad); err == nil {
			t.Fatalf("token of %d bytes accepted", len(bad))
		}
		if after := tbl.Entries(); len(after) != len(before) {
			t.Fatalf("a rejected token left %d of %d flows", len(after), len(before))
		}
	}
}

// TestRestoreInPlaceAllocBudget: restoring a 4096-flow token onto a table
// that already holds those flows allocates nothing: the flow table and
// the backend boxes are reused. It was two maps and a slab, about
// 0.4 MB, per restore, and then one Rc box per distinct backend.
func TestRestoreInPlaceAllocBudget(t *testing.T) {
	const flows, backends = 4096, 8
	tbl := NewTable()
	for i := 0; i < flows; i++ {
		tbl.Track(flowTuple(i), packet.IPv4(0xc0a80001+uint32(i%backends)), 100)
	}
	tok, err := tbl.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Restore(tok); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := tbl.Restore(tok); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("in-place restore of %d flows allocates %.0f objects, want 0", flows, allocs)
	}
	if tbl.Len() != flows || tbl.Backends() != backends {
		t.Fatalf("restored %d flows over %d backends", tbl.Len(), tbl.Backends())
	}
}
