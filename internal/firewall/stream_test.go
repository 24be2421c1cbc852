package firewall

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
	db := NewDB(Deny)
	for i := 0; i < 40; i++ {
		if _, err := db.AddRule(packet.IPv4(0x0a000000+uint32(i)<<8), 24, Rule{ID: i + 1, Action: Allow, Comment: "allow a /24"}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewStateful(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 100, 4096, len(want)} {
		var got []byte
		flushes := 0
		tail, err := s.StreamCheckpoint(make([]byte, 0, size), func(b []byte) ([]byte, error) {
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
	if _, err := s.StreamCheckpoint(make([]byte, 0, 64), func([]byte) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("a failed flush returned %v", err)
	}
}
