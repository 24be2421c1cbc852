package statestore

// onepass_test.go pins the zero-copy epoch path: PersistEpoch frames the
// caller's buffer without copying it and keeps nothing of it, a failed
// append never strands the epochs after it, and replay streams the log
// instead of reading it whole.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestFailedAppendDoesNotStrandLaterEpochs: the frame header lands, the
// payload write fails half way. The store must cut the partial frame off
// before the next append, so that the epochs persisted afterwards are
// inside the longest valid prefix a reopen replays.
func TestFailedAppendDoesNotStrandLaterEpochs(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{}, fs).SetCompactAfter(-1)
	if err := s.PersistEpoch("w", 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	good := s.WALSize()
	fs.arm(fault{op: "write", name: walName, skip: 1, n: 1}) // header ok, payload fails
	err := s.PersistEpoch("w", 2, bytes.Repeat([]byte("x"), 1000))
	if !errors.Is(err, errInjected) {
		t.Fatalf("PersistEpoch over a failing write = %v, want the injected error", err)
	}
	if s.WALSize() != good {
		t.Fatalf("WAL size %d after a failed append, want %d", s.WALSize(), good)
	}
	if st, _ := os.Stat(filepath.Join(dir, walName)); st.Size() != good {
		t.Fatalf("wal.log is %d bytes after a failed append, want the partial frame cut back to %d", st.Size(), good)
	}
	if _, seq, _, _ := s.LastEpoch("w"); seq != 1 {
		t.Fatalf("failed epoch was published: newest seq %d, want 1", seq)
	}
	if err := s.PersistEpoch("w", 3, []byte("third")); err != nil {
		t.Fatalf("append after a recovered failure: %v", err)
	}
	s.Close()

	s2 := openT(t, dir, Config{})
	payload, seq, ok, err := s2.LastEpoch("w")
	if err != nil || !ok || seq != 3 || string(payload) != "third" {
		t.Fatalf("reopen: seq=%d payload=%q ok=%v err=%v; epoch 3 was stranded behind a partial frame", seq, payload, ok, err)
	}
	if st := s2.StatsSnapshot(); st.TornRecords != 0 {
		t.Fatalf("reopen found %d torn bytes; the failed append left its partial frame behind", st.TornRecords)
	}
}

// TestUntruncatableWALPoisonsStore: when the partial frame cannot be cut
// off either, the tail of the WAL is unknown and appending behind it
// would be retry-and-trust: every later PersistEpoch fails instead.
func TestUntruncatableWALPoisonsStore(t *testing.T) {
	fs := &faultFS{}
	s := openFaultT(t, t.TempDir(), Config{}, fs).SetCompactAfter(-1)
	fs.arm(fault{op: "write", name: walName, n: 1})
	fs.arm(fault{op: "truncate", name: walName, n: -1})
	if err := s.PersistEpoch("w", 1, []byte("lost")); !errors.Is(err, errInjected) {
		t.Fatalf("first append = %v, want the injected error", err)
	}
	fs.disarm() // the disk "recovers"; the store must not trust it
	writes := fs.count("write", walName)
	err := s.PersistEpoch("w", 2, []byte("never written"))
	if err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("append on a poisoned store = %v, want the original failure", err)
	}
	if fs.count("write", walName) != writes {
		t.Fatal("a poisoned store wrote to its WAL")
	}
	if _, _, ok, _ := s.LastEpoch("w"); ok {
		t.Fatal("a poisoned store published an epoch")
	}
}

// TestPersistEpochBorrowsPayload: at most 4 allocations per epoch and
// none of them proportional to the payload — the frame is two writes
// around the caller's buffer — and PersistEpoch borrows that buffer for
// the call only: scribbling over it after every return changes nothing
// LastEpoch, a compaction or a reopen reads. (The root
// TestPersistEpochAllocatesNothing holds the loop to 0 allocations
// outside the race detector, which makes sync.Pool drop entries.)
func TestPersistEpochBorrowsPayload(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
	payload := make([]byte, 1<<20)
	seq := uint64(0)
	persist := func() {
		seq++
		for i := range payload {
			payload[i] = byte(seq)
		}
		if err := s.PersistEpoch("worker-0", seq, payload); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 0xee // the caller owns the buffer again
		}
	}
	persist() // first sight of the name allocates its map slot
	if allocs := testing.AllocsPerRun(20, persist); allocs > 4 {
		t.Fatalf("PersistEpoch allocates %.1f objects per epoch, want <= 4", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		persist()
	}
	runtime.ReadMemStats(&after)
	if perEpoch := (after.TotalAlloc - before.TotalAlloc) / runs; perEpoch > 1024 {
		t.Fatalf("PersistEpoch allocates %d B per 1 MiB epoch, want <= 1 KiB (no copy of the payload)", perEpoch)
	}
	want := bytes.Repeat([]byte{byte(seq)}, len(payload))
	check := func(s *Store, what string) {
		t.Helper()
		got, gotSeq, ok, err := s.LastEpoch("worker-0")
		if err != nil || !ok || gotSeq != seq || !bytes.Equal(got, want) {
			t.Fatalf("%s: LastEpoch = seq %d ok %v err %v, equal %v; want epoch %d as handed over", what, gotSeq, ok, err, bytes.Equal(got, want), seq)
		}
		if len(got) > 0 && &got[0] == &payload[0] {
			t.Fatalf("%s: LastEpoch returned the caller's buffer", what)
		}
	}
	check(s, "live")
	// What went to disk is the v1 frame around those bytes.
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, n := SplitFrames(data)
	if n != len(data) || uint64(len(recs)) != seq {
		t.Fatalf("WAL: %d records in %d of %d bytes, want %d records, all valid", len(recs), n, len(data), seq)
	}
	if _, _, _, token, err := decodeEpoch(recs[0]); err != nil || !bytes.Equal(token, bytes.Repeat([]byte{1}, len(payload))) {
		t.Fatalf("first record does not decode to the first payload: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "after a compaction")
	s.Close()
	check(openT(t, dir, Config{}), "after a reopen")
}

// TestReplayKeepsOnlyNewestRecord: reopening a WAL of many generations
// holds one buffer per domain plus one in flight, not the file.
func TestReplayKeepsOnlyNewestRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
	const gens, size = 64, 256 << 10
	for seq := uint64(1); seq <= gens; seq++ {
		p := bytes.Repeat([]byte{byte(seq)}, size)
		if err := s.PersistEpoch("worker-0", seq, p); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2 := openT(t, dir, Config{})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*size {
		t.Fatalf("reopening a %d-generation WAL allocated %d KiB, want about two %d KiB buffers", gens, grew>>10, size>>10)
	}
	payload, seq, ok, _ := s2.LastEpoch("worker-0")
	if !ok || seq != gens || !bytes.Equal(payload, bytes.Repeat([]byte{gens}, size)) {
		t.Fatalf("reopen: seq=%d ok=%v, payload mismatch", seq, ok)
	}
}
