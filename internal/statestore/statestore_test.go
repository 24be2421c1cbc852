package statestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	return openFaultT(t, dir, cfg, osFS{})
}

// openFaultT opens the store in dir over fs; it is closed at the test's
// end.
func openFaultT(t *testing.T, dir string, cfg Config, fs fileSystem) *Store {
	t.Helper()
	cfg.Dir = dir
	s, err := open(cfg, fs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPersistAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	for seq := uint64(1); seq <= 5; seq++ {
		if err := s.PersistEpoch("worker-0", seq, []byte(fmt.Sprintf("epoch-%d", seq))); err != nil {
			t.Fatalf("PersistEpoch: %v", err)
		}
	}
	if err := s.PersistEpoch("worker-1", 3, []byte("other")); err != nil {
		t.Fatalf("PersistEpoch: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir, Config{})
	payload, seq, ok, err := s2.LastEpoch("worker-0")
	if err != nil || !ok {
		t.Fatalf("LastEpoch: ok=%v err=%v", ok, err)
	}
	if seq != 5 || string(payload) != "epoch-5" {
		t.Fatalf("recovered seq=%d payload=%q, want 5/epoch-5", seq, payload)
	}
	if _, seq, ok, _ := s2.LastEpoch("worker-1"); !ok || seq != 3 {
		t.Fatalf("worker-1 seq=%d ok=%v, want 3/true", seq, ok)
	}
	if _, _, ok, _ := s2.LastEpoch("ghost"); ok {
		t.Fatal("ghost domain has an epoch")
	}
	if got := s2.names(); len(got) != 2 || got[0] != "worker-0" || got[1] != "worker-1" {
		t.Fatalf("Names = %v", got)
	}
}

func TestReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	if err := s.PersistEpoch("w", 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := s.PersistEpoch("w", 2, []byte("better")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail mid-record, as a kill -9 mid-append would.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, Config{})
	payload, seq, ok, err := s2.LastEpoch("w")
	if err != nil || !ok {
		t.Fatalf("LastEpoch after tear: ok=%v err=%v", ok, err)
	}
	if seq != 1 || string(payload) != "good" {
		t.Fatalf("recovered seq=%d payload=%q, want the un-torn epoch 1", seq, payload)
	}
	if st := s2.StatsSnapshot(); st.TornRecords == 0 {
		t.Fatal("torn tail not counted")
	}
	// The tail was truncated: appends splice onto a clean prefix.
	if err := s2.PersistEpoch("w", 2, []byte("again")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, dir, Config{})
	if _, seq, ok, _ := s3.LastEpoch("w"); !ok || seq != 2 {
		t.Fatalf("after re-append: seq=%d ok=%v, want 2/true", seq, ok)
	}
}

func TestAppendedGarbageIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	if err := s.PersistEpoch("w", 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(bytes.Repeat([]byte{0x5a}, 100))
	f.Close()
	s2 := openT(t, dir, Config{})
	if _, seq, ok, _ := s2.LastEpoch("w"); !ok || seq != 1 {
		t.Fatalf("seq=%d ok=%v, want 1/true", seq, ok)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every append compacts almost immediately.
	s := openT(t, dir, Config{}).SetCompactAfter(256)
	for seq := uint64(1); seq <= 50; seq++ {
		if err := s.PersistEpoch("w", seq, bytes.Repeat([]byte{byte(seq)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StatsSnapshot()
	if st.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	if st.WALBytes >= 50*64 {
		t.Fatalf("WAL grew unbounded: %d bytes", st.WALBytes)
	}
	s.Close()
	s2 := openT(t, dir, Config{})
	payload, seq, ok, err := s2.LastEpoch("w")
	if err != nil || !ok || seq != 50 {
		t.Fatalf("after compaction: seq=%d ok=%v err=%v", seq, ok, err)
	}
	if !bytes.Equal(payload, bytes.Repeat([]byte{50}, 64)) {
		t.Fatal("compacted payload differs")
	}
}

func TestExplicitCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{}).SetCompactAfter(-1)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := s.PersistEpoch("w", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size after compact = %d", got)
	}
	s.Close()
	s2 := openT(t, dir, Config{})
	if _, seq, ok, _ := s2.LastEpoch("w"); !ok || seq != 10 {
		t.Fatalf("seq=%d ok=%v, want 10", seq, ok)
	}
}

func TestConcurrentPersist(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncGroup})
	const workers, epochs = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("worker-%d", w)
			for seq := uint64(1); seq <= epochs; seq++ {
				if err := s.PersistEpoch(name, seq, []byte(fmt.Sprintf("%s/%d", name, seq))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.StatsSnapshot()
	if st.Persisted != workers*epochs {
		t.Fatalf("persisted %d, want %d", st.Persisted, workers*epochs)
	}
	// Group commit's whole point: far fewer fsyncs than appends.
	if st.Fsyncs >= st.Persisted {
		t.Fatalf("group commit did not coalesce: %d fsyncs for %d appends", st.Fsyncs, st.Persisted)
	}
	s.Close()
	s2 := openT(t, dir, Config{})
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("worker-%d", w)
		payload, seq, ok, err := s2.LastEpoch(name)
		if err != nil || !ok || seq != epochs {
			t.Fatalf("%s: seq=%d ok=%v err=%v", name, seq, ok, err)
		}
		if want := fmt.Sprintf("%s/%d", name, epochs); string(payload) != want {
			t.Fatalf("%s payload = %q, want %q", name, payload, want)
		}
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncGroup, FsyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, Config{Fsync: mode})
			for seq := uint64(1); seq <= 5; seq++ {
				if err := s.PersistEpoch("w", seq, []byte{byte(seq)}); err != nil {
					t.Fatal(err)
				}
			}
			st := s.StatsSnapshot()
			if mode == FsyncNone && st.Fsyncs != 0 {
				t.Fatalf("none: %d fsyncs, want 0", st.Fsyncs)
			}
			s.Close()
			s2 := openT(t, dir, Config{Fsync: mode})
			if _, seq, ok, _ := s2.LastEpoch("w"); !ok || seq != 5 {
				t.Fatalf("seq=%d ok=%v, want 5/true", seq, ok)
			}
		})
	}
}

func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{})
	s.Close()
	if err := s.PersistEpoch("w", 1, nil); err != ErrClosed {
		t.Fatalf("PersistEpoch after close: %v", err)
	}
	if _, _, _, err := s.LastEpoch("w"); err != ErrClosed {
		t.Fatalf("LastEpoch after close: %v", err)
	}
	if _, err := s.FlowIndex("w"); err != ErrClosed {
		t.Fatalf("FlowIndex after close: %v", err)
	}
}

func TestEpochDecodeRejectsGarbage(t *testing.T) {
	good := encodeEpoch("w", 7, 42, []byte("tok"))
	if _, _, _, _, err := decodeEpoch(good); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for i := 1; i < len(good); i++ {
		if _, _, _, _, err := decodeEpoch(good[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	if _, _, _, _, err := decodeEpoch(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}
