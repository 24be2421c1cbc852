package maglev

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/packet"
)

// TestStreamCheckpointThroughAnyChunk: through a chunk of any size, the
// bytes that reach flush, then the tail, are the unchunked capture's; a
// chunk that holds the image is never flushed; a flush error ends the
// capture.
func TestStreamCheckpointThroughAnyChunk(t *testing.T) {
	lb, err := NewBalancer([]Backend{{Name: "be-a", IP: 0x0a630001}, {Name: "backend-b", IP: 0x0a630002}}, 127)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		lb.Pick(packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: 0x0a630000, SrcPort: uint16(1000 + i), DstPort: 80, Proto: 17})
	}
	want, err := lb.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 18, 21, 22, 100, 4096, len(want)} {
		var got []byte
		flushes := 0
		tail, err := lb.StreamCheckpoint(make([]byte, 0, size), func(b []byte) ([]byte, error) {
			got = append(got, b...)
			flushes++
			return b[:0], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, tail...); !bytes.Equal(got, want) {
			t.Fatalf("chunk of %d: streamed %d bytes, not the unchunked capture's %d", size, len(got), len(want))
		}
		if size >= len(want) && flushes != 0 {
			t.Fatalf("chunk of %d holds the %d-byte image, yet flushed %d times", size, len(want), flushes)
		}
	}
	boom := errors.New("boom")
	if _, err := lb.StreamCheckpoint(make([]byte, 0, 64), func([]byte) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("a failed flush returned %v", err)
	}
}
