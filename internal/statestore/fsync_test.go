package statestore

// fsync_test.go holds the logs to "never retry and trust a failed
// fsync": after a writeback error the kernel may already have dropped the
// pages of the frames that fsync covered, so a later fsync that succeeds
// proves nothing about them, and replay would stop at the lost frame and
// take every later, acknowledged epoch or batch with it. The failed
// fsync poisons its log until a compaction has rewritten what the log
// holds, checked, into a fresh fsynced file.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFailedFsyncPoisonsTheWAL: once an epoch's fsync fails, no later
// epoch is acknowledged, Close returns the failure rather than syncing
// again, and a compaction clears it.
func TestFailedFsyncPoisonsTheWAL(t *testing.T) {
	for _, closeFirst := range []bool{true, false} {
		t.Run(map[bool]string{true: "close", false: "compact"}[closeFirst], func(t *testing.T) {
			dir, fs := t.TempDir(), &faultFS{}
			s := openFaultT(t, dir, Config{CompactAfter: -1}, fs)
			if err := s.PersistEpoch("w", 1, []byte("one")); err != nil {
				t.Fatal(err)
			}
			fs.arm(fault{op: "sync", name: walName, n: 1})
			if err := s.PersistEpoch("w", 2, []byte("two")); !errors.Is(err, errInjected) {
				t.Fatalf("epoch 2 over a failing fsync = %v, want the injected error", err)
			}
			syncs := fs.count("sync", walName)
			if err := s.PersistEpoch("w", 3, []byte("three")); !errors.Is(err, errInjected) {
				t.Fatalf("epoch 3 after a failed fsync = %v, want the sticky failure", err)
			}
			if closeFirst {
				if err := s.Close(); !errors.Is(err, errInjected) {
					t.Fatalf("Close of a poisoned WAL = %v, want the sticky failure", err)
				}
				if n := fs.count("sync", walName) - syncs; n != 0 {
					t.Fatalf("%d fsyncs of a poisoned WAL after its failure, want 0", n)
				}
				return
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := s.PersistEpoch("w", 4, []byte("four")); err != nil {
				t.Fatalf("epoch 4 after the compaction = %v; a compaction clears the poison", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got, seq, ok, err := openT(t, dir, Config{}).LastEpoch("w"); err != nil || !ok || seq != 4 || string(got) != "four" {
				t.Fatalf("reopen: epoch %d %q, %v, %v; want 4 \"four\"", seq, got, ok, err)
			}
		})
	}
}

// TestGroupCommitSiblingGetsTheFailedFsync: a persister whose frame was
// appended while a sibling's fsync ran, and which then waits for the sync
// lock (or reaches it after), learns that fsync failed instead of issuing
// its own and trusting that.
func TestGroupCommitSiblingGetsTheFailedFsync(t *testing.T) {
	fs := &faultFS{}
	s := openFaultT(t, t.TempDir(), Config{CompactAfter: -1}, fs)
	entered, release := make(chan struct{}), make(chan struct{})
	fs.arm(fault{op: "sync", name: walName, n: 1, hook: func() { close(entered); <-release }})
	errs := make(chan error, 2)
	go func() { errs <- s.PersistEpoch("a", 1, []byte("a-1")) }()
	<-entered
	go func() { errs <- s.PersistEpoch("b", 1, []byte("b-1")) }()
	for deadline := time.Now().Add(10 * time.Second); s.appended.Load() < 2; time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sibling never appended")
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errInjected) {
			t.Fatalf("persister %d of 2 behind a failed fsync: %v, want the injected error", i+1, err)
		}
	}
	if n := fs.count("sync", walName); n != 1 {
		t.Fatalf("%d fsyncs of the WAL, want the 1 that failed", n)
	}
}

// TestFailedFsyncPoisonsTheSpillLog: the spill log's rule is the WAL's.
// No batch after a failed fsync is acknowledged, Close returns it, and a
// compaction (FlowCount compacts) clears it, with every flow that was
// acknowledged or read back before it in the new index.
func TestFailedFsyncPoisonsTheSpillLog(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{FlowCompactAfter: -1}, fs)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	fs.arm(fault{op: "sync", name: "w.flog", n: 1})
	if err := fi.SpillFlows(flowBatch(10, 10, 1)); !errors.Is(err, errInjected) {
		t.Fatalf("spill over a failing fsync = %v, want the injected error", err)
	}
	if err := fi.SpillFlows(flowBatch(20, 10, 1)); !errors.Is(err, errInjected) {
		t.Fatalf("spill after a failed fsync = %v, want the sticky failure", err)
	}
	wantFlows(t, fi, 20, 10, false)
	if n, err := fi.FlowCount(); err != nil || n != 20 {
		t.Fatalf("FlowCount = %d, %v; want the 20 flows the log holds", n, err)
	}
	if err := fi.SpillFlows(flowBatch(30, 10, 1)); err != nil {
		t.Fatalf("spill after the compaction = %v; a compaction clears the poison", err)
	}
	fs.arm(fault{op: "sync", name: "w.flog", n: 1})
	if err := fi.SpillFlows(flowBatch(40, 10, 1)); !errors.Is(err, errInjected) {
		t.Fatalf("spill over a failing fsync = %v, want the injected error", err)
	}
	syncs := fs.count("sync", "w.flog")
	if err := s.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close with a poisoned spill log = %v, want the sticky failure", err)
	}
	if n := fs.count("sync", "w.flog") - syncs; n != 0 {
		t.Fatalf("%d fsyncs of a poisoned spill log after its failure, want 0", n)
	}
	fi2 := flowIndexT(t, openT(t, dir, Config{FlowCompactAfter: -1}), "w")
	wantFlows(t, fi2, 0, 20, true)
	wantFlows(t, fi2, 30, 10, true)
}

// TestUnreadableIndexFailsOpen: an index whose size cannot be read is an
// open error — taken for absent, the next compaction would write the
// overlay alone and lose every flow in it — and once it reads again the
// index opens whole.
func TestUnreadableIndexFailsOpen(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{FlowCompactAfter: -1}, fs)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 40, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openFaultT(t, dir, Config{FlowCompactAfter: -1}, fs)
	fs.arm(fault{op: "stat", name: "w.fidx", n: 1})
	if _, err := s2.FlowIndex("w"); !errors.Is(err, errInjected) {
		t.Fatalf("FlowIndex over an index that cannot be sized = %v, want the injected error", err)
	}
	fi2 := flowIndexT(t, s2, "w")
	if n, err := fi2.FlowCount(); err != nil || n != 40 {
		t.Fatalf("FlowCount = %d, %v; want the index's 40", n, err)
	}
}

// TestTornIndexIsCountedAndAbsent: an index that is not whole entries
// cannot come out of the rename barrier; it opens as absent, as before,
// and its bytes are counted as torn.
func TestTornIndexIsCountedAndAbsent(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{FlowCompactAfter: -1}, fs)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 40, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	const size = 25*flowEntrySize + 7
	if err := os.Truncate(filepath.Join(dir, "w.fidx"), size); err != nil {
		t.Fatal(err)
	}
	s2 := openFaultT(t, dir, Config{FlowCompactAfter: -1}, fs)
	fi2 := flowIndexT(t, s2, "w")
	if torn := s2.StatsSnapshot().TornRecords; torn != size {
		t.Fatalf("TornRecords = %d, want the %d bytes of the torn index", torn, size)
	}
	if fi2.idx != nil || fi2.idxCount != 0 {
		t.Fatalf("a torn index opened with %d entries", fi2.idxCount)
	}
}
