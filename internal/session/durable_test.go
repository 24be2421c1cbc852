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
	for _, f := range dst.flows {
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
	f0 := dst.flows[h0]
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
