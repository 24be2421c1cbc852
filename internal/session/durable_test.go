package session

import (
	"testing"

	"repro/internal/linear"
	"repro/internal/packet"
)

func flowTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   packet.IPv4(0x0a000000 + uint32(i)),
		DstIP:   0x0a630001,
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   17,
	}
}

func TestTokenRoundTrip(t *testing.T) {
	src := NewTable()
	for i := 0; i < 50; i++ {
		src.Track(flowTuple(i), packet.IPv4(0xc0a80001+uint32(i%3)), 100+i)
	}
	payload, err := src.AppendCheckpoint(nil)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	dst := NewTable()
	if err := dst.CheckCheckpoint(payload); err != nil {
		t.Fatalf("check: %v", err)
	}
	if err := dst.Restore(payload); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d flows, want %d", dst.Len(), src.Len())
	}
	want := src.Entries()
	got := dst.Entries()
	for h, ip := range want {
		if got[h] != ip {
			t.Fatalf("flow %x → %v, want %v", h, got[h], ip)
		}
	}
	// Figure 3a aliasing survives the byte round trip: 3 distinct
	// backends means 3 Rc boxes, shared across the 50 flows.
	if dst.Backends() != 3 {
		t.Fatalf("restored %d backends, want 3", dst.Backends())
	}
	dst.mu.Lock()
	boxes := map[packet.IPv4]linear.Rc[Backend]{}
	for _, f := range dst.flowsLocked() {
		ip := f.Backend.Get().IP
		if prev, ok := boxes[ip]; ok {
			if !prev.SameBox(f.Backend) {
				dst.mu.Unlock()
				t.Fatal("same-backend flows no longer share a box after decode")
			}
		} else {
			boxes[ip] = f.Backend
		}
	}
	dst.mu.Unlock()

	// Counters ride along.
	dst.mu.Lock()
	h0 := flowTuple(0).Hash()
	f0 := dst.flowsLocked()[h0]
	dst.mu.Unlock()
	if f0 == nil || f0.Packets != 1 || f0.Bytes != 100 {
		t.Fatalf("flow 0 counters: %+v", f0)
	}

	// The image is reusable: a second restore from the same bytes must
	// not alias the first restore's since-mutated state.
	dst.Track(flowTuple(999), 0xc0a80001, 1)
	dst2 := NewTable()
	if err := dst2.Restore(payload); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if dst2.Len() != src.Len() {
		t.Fatalf("second restore has %d flows, want %d", dst2.Len(), src.Len())
	}
}

func TestTokenRoundTripEmpty(t *testing.T) {
	src := NewTable()
	payload, err := src.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewTable()
	if err := dst.CheckCheckpoint(payload); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(payload); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Fatalf("empty round trip has %d flows", dst.Len())
	}
}

func TestDecodeTokenRejectsGarbage(t *testing.T) {
	tbl := NewTable()
	if err := tbl.CheckCheckpoint(nil); err == nil {
		t.Fatal("nil token accepted")
	}
	if err := tbl.CheckCheckpoint([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad version accepted")
	}
	if err := tbl.CheckCheckpoint([]byte{sessionTokenVersion, 5, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Fatal("truncated token accepted")
	}
	// A hostile count must be refused by arithmetic, not by trying to
	// allocate for it.
	huge := []byte{sessionTokenVersion, 0xff, 0xff, 0xff, 0xff}
	if err := tbl.CheckCheckpoint(huge); err == nil {
		t.Fatal("4G-flow count over an empty body accepted")
	}
	if err := tbl.Restore(huge); err == nil {
		t.Fatal("Restore accepted a 4G-flow count over an empty body")
	}
}

// restoredInvariants checks what any accepted image must leave behind:
// for every interned backend StrongCount == resident flows naming it + 1
// and at least one flow naming it, and a checkpoint of exactly the
// resident flows.
func restoredInvariants(t *testing.T, tbl *Table) {
	t.Helper()
	backendCounts(t, tbl, "restore")
	tbl.mu.Lock()
	for ip, rc := range tbl.intern {
		if rc.StrongCount() == 1 {
			tbl.mu.Unlock()
			t.Fatalf("backend %v stays interned with no flow naming it", ip)
		}
	}
	tbl.mu.Unlock()
	img, err := tbl.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != tbl.CheckpointSize() || len(img) != sessionHeaderSize+tbl.Len()*sessionEntrySize {
		t.Fatalf("image is %d bytes, CheckpointSize %d, %d flows resident", len(img), tbl.CheckpointSize(), tbl.Len())
	}
}

// TestRestoreImageNamingAFlowTwice: an image whose entries name one flow
// hash twice restores one flow, the last entry's. The clone the first
// entry took is dropped, so its backend's StrongCount is again the flows
// naming it + 1, and a backend only the overwritten entry named leaves
// the intern map. (Before the fix the first backend kept a strong count
// of 2 with no flow naming it, interned for good.)
func TestRestoreImageNamingAFlowTwice(t *testing.T) {
	first, last := NewTable(), NewTable()
	first.Track(flowTuple(1), 0xc0a80001, 100)
	last.Track(flowTuple(1), 0xc0a80002, 200)
	last.Track(flowTuple(2), 0xc0a80002, 300)
	a, _ := first.AppendCheckpoint(nil)
	b, _ := last.AppendCheckpoint(nil)
	img := append([]byte{sessionTokenVersion, 3, 0, 0, 0}, a[sessionHeaderSize:]...)
	img = append(img, b[sessionHeaderSize:]...)

	tbl := NewTable()
	tbl.Track(flowTuple(7), 0xc0a80001, 1) // a live box the image names first
	if err := tbl.Restore(img); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 || tbl.Backends() != 1 {
		t.Fatalf("restored %d flows over %d backends, want 2 over 1", tbl.Len(), tbl.Backends())
	}
	if got := tbl.Entries()[flowTuple(1).Hash()]; got != 0xc0a80002 {
		t.Fatalf("flow 1 → %v, want the last entry's %v", got, packet.IPv4(0xc0a80002))
	}
	if f := tbl.flowsLocked()[flowTuple(1).Hash()]; f.Bytes != 200 {
		t.Fatalf("flow 1 restored %d bytes, want the last entry's 200", f.Bytes)
	}
	restoredInvariants(t, tbl)
}
