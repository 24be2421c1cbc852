package maglev

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/packet"
)

func TestBalancerTokenRoundTrip(t *testing.T) {
	backends := []Backend{
		{Name: "be-a", IP: 0x0a630001},
		{Name: "be-b", IP: 0x0a630002},
		{Name: "be-c", IP: 0x0a630003},
	}
	src, err := NewBalancer(backends, 127)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		src.Pick(packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: 0x0a630000,
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: 17,
		})
	}
	snap, err := src.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := src.EncodeToken(snap)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewBalancer(backends, 127)
	if err != nil {
		t.Fatal(err)
	}
	token, err := dst.DecodeToken(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(token); err != nil {
		t.Fatal(err)
	}
	if dst.ConnCount() != src.ConnCount() {
		t.Fatalf("restored %d conns, want %d", dst.ConnCount(), src.ConnCount())
	}
	sh, sm := src.Stats()
	dh, dm := dst.Stats()
	if sh != dh || sm != dm {
		t.Fatalf("stats %d/%d, want %d/%d", dh, dm, sh, sm)
	}
	// Stickiness survives: every flow picks the same backend it had.
	src.mu.Lock()
	conns := make(map[uint64]Backend, len(src.conns))
	for h, be := range src.conns {
		conns[h] = be
	}
	src.mu.Unlock()
	dst.mu.Lock()
	for h, want := range conns {
		if got := dst.conns[h]; got != want {
			dst.mu.Unlock()
			t.Fatalf("conn %x → %+v, want %+v", h, got, want)
		}
	}
	dst.mu.Unlock()
}

func TestBalancerDecodeRejectsGarbage(t *testing.T) {
	b, err := NewBalancer([]Backend{{Name: "x", IP: 1}}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DecodeToken(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := b.DecodeToken(make([]byte, 21)); err == nil {
		t.Fatal("bad version accepted")
	}
	// Truncated conn list.
	good, _ := b.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	b.Pick(packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17})
	snap, _ := b.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	payload, err := b.EncodeToken(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.DecodeToken(payload[:len(payload)-2]); err == nil {
		t.Fatal("truncated accepted")
	}
	// A hostile conn count (CRC-valid on disk, so it reaches the decoder
	// at boot) must be refused against the bytes that remain, before any
	// map is sized by it.
	huge := append([]byte(nil), payload...)
	huge[17], huge[18], huge[19], huge[20] = 0xff, 0xff, 0xff, 0xff
	if _, err := b.DecodeToken(huge); err == nil {
		t.Fatal("4G-conn count accepted by DecodeToken")
	}
	if err := b.Restore(huge); err == nil {
		t.Fatal("4G-conn count accepted by Restore")
	}
	if err := b.Restore(42); err == nil {
		t.Fatal("bad restore token accepted")
	}
	if _, err := b.EncodeToken(42); err == nil {
		t.Fatal("bad encode token accepted")
	}
	_ = good
}
