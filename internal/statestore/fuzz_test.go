package statestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary byte streams through both recovery
// layers: the frame splitter (longest-valid-prefix contract) and a full
// Store.Open over the bytes as a WAL (replay + torn-tail truncation +
// epoch decoding must never panic, and a reopened store must agree with
// itself). Seeds cover the torn-write taxonomy: truncation mid-length-
// prefix, mid-CRC, mid-payload, and bit flips in each region; and
// streamed epochs: orphan chunks, a commit whose predecessor is missing,
// two domains' streams interleaved, a torn commit, and orphans whose seq
// a restarted writer streams again.
func FuzzWALReplay(f *testing.F) {
	twoEpochs := func() []byte {
		var buf []byte
		buf = AppendFrame(buf, encodeEpoch("worker-0", 1, 100, []byte("alpha-token")))
		buf = AppendFrame(buf, encodeEpoch("worker-0", 2, 200, []byte("bravo-token")))
		return buf
	}
	full := twoEpochs()
	first := AppendFrame(nil, encodeEpoch("worker-0", 1, 100, []byte("alpha-token")))
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(first)+2]) // torn mid-length-prefix
	f.Add(full[:len(first)+6]) // torn mid-CRC
	f.Add(full[:len(full)-3])  // torn mid-payload
	flip := append([]byte(nil), full...)
	flip[len(first)+10] ^= 0x40 // bit flip in second payload
	f.Add(flip)
	flip2 := append([]byte(nil), full...)
	flip2[2] ^= 0x80 // bit flip in first length prefix
	f.Add(flip2)
	f.Add(AppendFrame(nil, []byte("not an epoch record")))                                    // CRC-clean, undecodable
	f.Add(append(append([]byte(nil), first...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 1, 2, 3)) // oversized length after a good record

	// Streamed epochs: chunk records and the commit that ends them.
	chunk := func(buf []byte, kind byte, name string, seq uint64, index int, body string) []byte {
		hdr, err := chunkFrameHeader(nil, kind, name, seq, index, []byte(body))
		if err != nil {
			panic(err)
		}
		return append(append(buf, hdr...), body...)
	}
	streamed := chunk(nil, chunkKind, "worker-0", 3, 0, "ab")
	streamed = chunk(streamed, chunkKind, "worker-0", 3, 1, "cd")
	streamed = chunk(streamed, commitKind, "worker-0", 3, 2, "ef")
	f.Add(append(append([]byte(nil), full...), streamed...))
	f.Add(chunk(chunk(full, chunkKind, "worker-0", 3, 0, "ab"), chunkKind, "worker-0", 3, 1, "cd"))  // orphan chunks
	f.Add(chunk(chunk(full, chunkKind, "worker-0", 3, 0, "ab"), commitKind, "worker-0", 3, 2, "ef")) // a commit whose predecessor is missing
	interleaved := chunk(nil, chunkKind, "worker-0", 1, 0, "a0")
	interleaved = chunk(interleaved, chunkKind, "worker-1", 1, 0, "b0")
	interleaved = chunk(interleaved, chunkKind, "worker-0", 1, 1, "a1")
	interleaved = chunk(interleaved, commitKind, "worker-1", 1, 1, "b1")
	interleaved = chunk(interleaved, commitKind, "worker-0", 1, 2, "a2")
	f.Add(interleaved)
	f.Add(streamed[:len(streamed)-4]) // a torn commit
	restarted := chunk(full, chunkKind, "worker-0", 3, 0, "o0")
	restarted = chunk(restarted, chunkKind, "worker-0", 4, 0, "o1")
	restarted = chunk(restarted, chunkKind, "worker-0", 3, 0, "ab") // the restart goes on from seq 2
	restarted = chunk(restarted, commitKind, "worker-0", 3, 1, "cd")
	f.Add(restarted)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n := SplitFrames(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", n, len(data))
		}
		// Longest-valid-prefix exactness: the records re-encode to
		// data[:n], and re-splitting the prefix is a fixed point.
		var re []byte
		for _, r := range recs {
			re = AppendFrame(re, r)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encoded prefix differs from data[:%d]", n)
		}
		recs2, n2 := SplitFrames(data[:n])
		if n2 != n || len(recs2) != len(recs) {
			t.Fatalf("re-split: %d records/%d bytes, want %d/%d", len(recs2), n2, len(recs), n)
		}

		// The streaming reader recovery runs on is the same function:
		// same records, same valid-prefix length, on every input.
		var streamed [][]byte
		var next int64 // where the next frame starts, by the frames seen so far
		valid, err := scanFrames(bytes.NewReader(data), int64(len(data)), func(off int64, rec []byte) {
			if off != next {
				t.Fatalf("scanFrames: record %d at offset %d, want %d", len(streamed), off, next)
			}
			next += frameHeaderSize + int64(len(rec))
			streamed = append(streamed, bytes.Clone(rec)) // rec is the scanner's buffer
		})
		if err != nil || valid != int64(n) || len(streamed) != len(recs) {
			t.Fatalf("scanFrames: %d records/%d bytes (err %v), SplitFrames %d/%d", len(streamed), valid, err, len(recs), n)
		}
		for i := range recs {
			if !bytes.Equal(streamed[i], recs[i]) {
				t.Fatalf("scanFrames record %d differs from SplitFrames", i)
			}
		}

		// Full recovery path: the bytes as a store's WAL. Open must not
		// panic, must truncate the torn tail, and a second Open must see
		// identical epochs.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Config{Dir: dir, Fsync: FsyncNone})
		if err != nil {
			t.Fatalf("Open on fuzzed WAL: %v", err)
		}
		names := s.names()
		type epoch struct {
			seq     uint64
			payload []byte
		}
		epochs := make(map[string]epoch, len(names))
		for _, name := range names {
			payload, seq, ok, err := s.LastEpoch(name)
			if err != nil || !ok {
				t.Fatalf("LastEpoch(%q): ok=%v err=%v", name, ok, err)
			}
			epochs[name] = epoch{seq, payload}
		}
		s.Close()
		// A reopen, and a compaction and a reopen after it, see the
		// same epochs, byte for byte.
		for _, compact := range []bool{false, true} {
			s2, err := Open(Config{Dir: dir, Fsync: FsyncNone})
			if err != nil {
				t.Fatalf("re-Open: %v", err)
			}
			if compact {
				if err := s2.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
				s2.Close()
				if s2, err = Open(Config{Dir: dir, Fsync: FsyncNone}); err != nil {
					t.Fatalf("Open after Compact: %v", err)
				}
			}
			for name, e := range epochs {
				payload, seq, ok, err := s2.LastEpoch(name)
				if err != nil || !ok || seq != e.seq || !bytes.Equal(payload, e.payload) {
					t.Fatalf("reopen (compacted %v) changed %q: seq %d→%d ok=%v err=%v", compact, name, e.seq, seq, ok, err)
				}
			}
			if len(s2.names()) != len(names) {
				t.Fatalf("reopen (compacted %v) domain count %d != %d", compact, len(s2.names()), len(names))
			}
			s2.Close()
		}
	})
}
