package statestore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// SplitFrames decodes the longest valid prefix of a log: every complete,
// CRC-clean record in order, and n, the byte length of that prefix.
// data[n:] is the torn tail (truncated header, short payload, oversized
// length, or CRC mismatch) and is never partially decoded. The returned
// payloads are subslices of data, not copies. This is the in-memory
// reference scanFrames is tested against (FuzzWALReplay).
func SplitFrames(data []byte) (recs [][]byte, n int) {
	for {
		rest := data[n:]
		if len(rest) < frameHeaderSize {
			return recs, n
		}
		length := binary.LittleEndian.Uint32(rest)
		if length > MaxFrame || int(length) > len(rest)-frameHeaderSize {
			return recs, n
		}
		sum := binary.LittleEndian.Uint32(rest[4:])
		payload := rest[frameHeaderSize : frameHeaderSize+int(length)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, n
		}
		recs = append(recs, payload)
		n += frameHeaderSize + int(length)
	}
}

// AppendFrame appends one framed record holding payload to buf and
// returns the extended buffer: the framing every log of the store
// writes, for tests that build logs by hand.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

func frames(payloads ...string) []byte {
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, []byte(p))
	}
	return buf
}

func TestSplitFramesRoundTrip(t *testing.T) {
	data := frames("alpha", "", "bravo-charlie")
	recs, n := SplitFrames(data)
	if n != len(data) {
		t.Fatalf("valid prefix = %d, want %d", n, len(data))
	}
	want := []string{"alpha", "", "bravo-charlie"}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if string(rec) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, rec, want[i])
		}
	}
}

func TestSplitFramesTornTail(t *testing.T) {
	full := frames("alpha", "bravo")
	first := frames("alpha")
	cases := []struct {
		name string
		data []byte
		want int // surviving records
	}{
		{"empty", nil, 0},
		{"mid length prefix", full[:len(first)+2], 1},
		{"mid crc", full[:len(first)+6], 1},
		{"mid payload", full[:len(full)-2], 1},
		{"header only", full[:len(first)+8], 1},
		{"all torn", full[:3], 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, n := SplitFrames(tc.data)
			if len(recs) != tc.want {
				t.Fatalf("got %d records, want %d", len(recs), tc.want)
			}
			// The valid prefix re-encodes to exactly data[:n].
			var re []byte
			for _, r := range recs {
				re = AppendFrame(re, r)
			}
			if !bytes.Equal(re, tc.data[:n]) {
				t.Fatalf("re-encoded prefix differs: %x vs %x", re, tc.data[:n])
			}
		})
	}
}

func TestSplitFramesCorruption(t *testing.T) {
	full := frames("alpha", "bravo")
	first := frames("alpha")

	// Bit-flip inside the second payload: CRC catches it, record one
	// survives.
	flipped := append([]byte(nil), full...)
	flipped[len(first)+8+1] ^= 0x40
	recs, n := SplitFrames(flipped)
	if len(recs) != 1 || n != len(first) {
		t.Fatalf("payload flip: %d records, prefix %d; want 1, %d", len(recs), n, len(first))
	}

	// Bit-flip in the second length prefix making it absurd: same result.
	flipped = append([]byte(nil), full...)
	flipped[len(first)+3] ^= 0x80 // high byte of the u32 length
	recs, n = SplitFrames(flipped)
	if len(recs) != 1 || n != len(first) {
		t.Fatalf("length flip: %d records, prefix %d; want 1, %d", len(recs), n, len(first))
	}

	// Flip in the *first* record: nothing survives.
	flipped = append([]byte(nil), full...)
	flipped[9] ^= 0x01
	recs, n = SplitFrames(flipped)
	if len(recs) != 0 || n != 0 {
		t.Fatalf("first-record flip: %d records, prefix %d; want 0, 0", len(recs), n)
	}
}

func TestSplitFramesOversizedLength(t *testing.T) {
	var buf []byte
	buf = append(buf, 0xff, 0xff, 0xff, 0x7f) // length ≫ MaxFrame
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, bytes.Repeat([]byte{0xab}, 64)...)
	recs, n := SplitFrames(buf)
	if len(recs) != 0 || n != 0 {
		t.Fatalf("oversized length: %d records, prefix %d; want 0, 0", len(recs), n)
	}
}

// encodeEpoch joins the record PersistEpoch writes in two pieces, for
// tests that build logs by hand.
func encodeEpoch(name string, seq uint64, at int64, token []byte) []byte {
	hdr, err := epochFrameHeader(nil, name, seq, at, token)
	if err != nil {
		panic(err)
	}
	return append(hdr[frameHeaderSize:], token...)
}
