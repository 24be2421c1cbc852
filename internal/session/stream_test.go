package session

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/packet"
)

// streamed runs StreamCheckpoint through a chunk of size bytes and
// returns what reached flush, then the tail, and how many chunks went.
func streamed(t *testing.T, capture func([]byte, func([]byte) ([]byte, error)) ([]byte, error), size int) ([]byte, int) {
	t.Helper()
	var out []byte
	flushes := 0
	tail, err := capture(make([]byte, 0, size), func(b []byte) ([]byte, error) {
		out = append(out, b...)
		flushes++
		return b[:0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tail...), flushes
}

// TestStreamCheckpointThroughAnyChunk: through a chunk of any size, the
// bytes that reach flush, then the tail, are the unchunked capture's; a
// chunk that holds the image is never flushed; a flush error ends the
// capture.
func TestStreamCheckpointThroughAnyChunk(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 500; i++ {
		tbl.Track(flowTuple(i), packet.IPv4(0xc0a80001+uint32(i%3)), 100+i)
	}
	want, err := tbl.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 5, 41, 42, 100, 4096, len(want)} {
		got, flushes := streamed(t, tbl.StreamCheckpoint, size)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk of %d: streamed %d bytes, not the unchunked capture's %d", size, len(got), len(want))
		}
		if size >= len(want) && flushes != 0 {
			t.Fatalf("chunk of %d holds the %d-byte image, yet flushed %d times", size, len(want), flushes)
		}
	}
	boom := errors.New("boom")
	if _, err := tbl.StreamCheckpoint(make([]byte, 0, 64), func([]byte) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("a failed flush returned %v", err)
	}
}
