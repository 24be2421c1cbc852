package statestore

// flowmerge_test.go holds the flow index's compaction to its contract:
// the streaming merge writes the file the read-sort-rewrite compaction
// it replaced would have written, keeps nothing resident that grows with
// the index, and leaves the old index and the overlay answering lookups
// whichever step of it fails.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/session"
)

// spread maps small integers onto the whole u64 range, high bit included
// (an odd multiplier is a bijection, so distinct inputs stay distinct).
func spread(i uint64) uint64 { return i * 0x9e3779b97f4a7c15 }

func flowIndexT(t *testing.T, s *Store, name string) *FlowIndex {
	t.Helper()
	fi, err := s.FlowIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// checkIdxFile reads the .fidx at path and requires whole entries in
// strictly increasing hash order — sorted, no duplicate — returning how
// many it holds. A missing file holds none.
func checkIdxFile(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%flowEntrySize != 0 {
		t.Fatalf("%s is %d bytes, not whole entries", filepath.Base(path), len(data))
	}
	for off := flowEntrySize; off < len(data); off += flowEntrySize {
		prev, cur := binary.LittleEndian.Uint64(data[off-flowEntrySize:]), binary.LittleEndian.Uint64(data[off:])
		if prev >= cur {
			t.Fatalf("%s: entry %d has hash %#x after %#x", filepath.Base(path), off/flowEntrySize, cur, prev)
		}
	}
	return len(data) / flowEntrySize
}

// TestStreamingMergeWritesTheParentsIndex: the .fidx the merge leaves
// after a fixed spill sequence — 500 hashes revisited across 60 batches,
// compactions triggered by the overlay and forced, one on an empty
// overlay — is byte for byte the one the commit before the streaming
// merge (5f5d456: read the index whole, override from the overlay, sort
// everything, rewrite) wrote for the same sequence. The digest below was
// taken by running this test's body at that commit.
func TestStreamingMergeWritesTheParentsIndex(t *testing.T) {
	const parentDigest = "1df319db54c899d141affdce2bc647243e5bebb6be5ee6fa06c15a4aa5d72216"
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncNone}).SetFlowCompactAfter(64)
	fi := flowIndexT(t, s, "w")
	batch := make([]session.SpillRecord, 48)
	for step := uint64(0); step < 60; step++ {
		for i := range batch {
			n := step*48 + uint64(i)
			batch[i] = rec(spread(n*7919%500), uint32(n%5), n)
		}
		if err := fi.SpillFlows(batch[:1+step%48]); err != nil {
			t.Fatal(err)
		}
		if step%7 == 3 {
			if err := fi.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 2; i++ { // the second finds the overlay empty
		if err := fi.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "w.fidx"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != parentDigest {
		t.Fatalf("w.fidx (%d entries) has digest %s, the parent wrote %s", len(data)/flowEntrySize, got, parentDigest)
	}
	if n := checkIdxFile(t, filepath.Join(dir, "w.fidx")); n != fi.idxCount || n == 0 {
		t.Fatalf("w.fidx holds %d entries, the index says %d", n, fi.idxCount)
	}
}

// TestIndexMemoryFollowsTheConfigNotTheFlows: an index grown to 256k
// flows through ordinary 2048-record spill batches at
// defaultFlowCompactAfter keeps resident only what its constants bound —
// the overlay's buckets, its sorted hashes, one batch's payload and
// frame, two merge buffers — where the compaction it replaced kept ~89
// bytes of merge scratch per flow ever spilled (~22 MB here). One more
// compaction of the grown index then allocates the temp file's
// bookkeeping and nothing else.
func TestIndexMemoryFollowsTheConfigNotTheFlows(t *testing.T) {
	const flows, batchLen = 256 << 10, 2048
	s := openT(t, t.TempDir(), Config{Fsync: FsyncNone})
	fi := flowIndexT(t, s, "worker-0")
	batch := make([]session.SpillRecord, batchLen)
	spill := func(from, pkts uint64) {
		for i := range batch {
			batch[i] = rec(spread(from+uint64(i)), 0x0a000001, pkts)
		}
		if err := fi.SpillFlows(batch); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for from := uint64(0); from < flows; from += batchLen {
		spill(from, 1)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("building the %d-flow index grew the live heap by %d B", flows, grew)
	if grew > 2<<20 {
		t.Fatalf("an index of %d flows keeps %d B of heap, want <= 2 MiB whatever its size", flows, grew)
	}
	if st := s.StatsSnapshot(); st.Compactions < flows/defaultFlowCompactAfter {
		t.Fatalf("%d compactions while spilling %d flows: the overlay threshold never fired", st.Compactions, flows)
	}

	spill(flows/2, 2) // 2048 updates in the middle of the index
	runtime.ReadMemStats(&before)
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("one more compaction allocated %d B", n)
	if n > 8<<10 {
		t.Fatalf("one compaction of a %d-flow index allocates %d B, want <= 8 KiB", flows, n)
	}
	if n, err := fi.FlowCount(); err != nil || n != flows {
		t.Fatalf("FlowCount = %d, %v; want %d", n, err, flows)
	}
	for _, c := range []struct{ i, pkts uint64 }{{0, 1}, {flows/2 - 1, 1}, {flows / 2, 2}, {flows/2 + batchLen - 1, 2}, {flows/2 + batchLen, 1}, {flows - 1, 1}} {
		if got, ok, err := fi.LookupFlow(spread(c.i)); err != nil || !ok || got.Packets != c.pkts {
			t.Fatalf("flow %d = %+v, %v, %v; want %d packets", c.i, got, ok, err, c.pkts)
		}
	}
}

func flowBatch(from, n int, pkts uint64) []session.SpillRecord {
	out := make([]session.SpillRecord, n)
	for i := range out {
		out[i] = rec(spread(uint64(from+i)), 0x0a000001, pkts)
	}
	return out
}

func wantFlows(t *testing.T, fi *FlowIndex, from, n int, present bool) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, ok, err := fi.LookupFlow(spread(uint64(i))); err != nil || ok != present {
			t.Fatalf("flow %d: found=%v err=%v, want found=%v", i, ok, err, present)
		}
	}
}

// TestFailedSpillDoesNotStrandLaterBatches: half of a batch's frame
// lands and the write fails. The log must be cut back before the next
// batch is appended, or a reopen's longest valid prefix ends at the
// partial frame and every batch spilled after it is lost.
func TestFailedSpillDoesNotStrandLaterBatches(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{}, fs).SetFlowCompactAfter(-1)
	fi := flowIndexT(t, s, "w")
	fs.arm(fault{op: "write", name: "w.flog", skip: 1, n: 1})
	if err := fi.SpillFlows(flowBatch(0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows(flowBatch(10, 10, 1)); !errors.Is(err, errInjected) {
		t.Fatalf("spill over a failing write: %v", err)
	}
	wantFlows(t, fi, 10, 10, false) // the caller was told they are not on disk
	if err := fi.SpillFlows(flowBatch(20, 10, 1)); err != nil {
		t.Fatalf("spill after a failed one: %v", err)
	}
	frame := int64(frameHeaderSize + 10*flowEntrySize)
	if st, err := os.Stat(filepath.Join(dir, "w.flog")); err != nil || st.Size() != 2*frame || fi.log.size != 2*frame {
		t.Fatalf("spill log is %d bytes (index says %d), want the two whole frames = %d", st.Size(), fi.log.size, 2*frame)
	}
	s.Close()

	s2 := openT(t, dir, Config{}).SetFlowCompactAfter(-1)
	fi2 := flowIndexT(t, s2, "w")
	if torn := s2.StatsSnapshot().TornRecords; torn != 0 {
		t.Fatalf("reopen found %d torn bytes in a log that was cut clean", torn)
	}
	wantFlows(t, fi2, 0, 10, true)
	wantFlows(t, fi2, 10, 10, false)
	wantFlows(t, fi2, 20, 10, true)
}

// TestUncuttableSpillLogRefusesLaterSpills: when the partial frame
// cannot be cut off either, nothing may be appended behind it — every
// later spill gets the same error and the session table keeps its
// victims in RAM.
func TestUncuttableSpillLogRefusesLaterSpills(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{}, fs).SetFlowCompactAfter(-1)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 10, 1)); err != nil {
		t.Fatal(err)
	}
	fs.arm(fault{op: "write", name: "w.flog", n: 1})
	fs.arm(fault{op: "truncate", name: "w.flog", n: -1})
	writes := fs.count("write", "w.flog")
	first := fi.SpillFlows(flowBatch(10, 10, 1))
	if !errors.Is(first, errInjected) || !strings.Contains(first.Error(), "unusable") {
		t.Fatalf("spill with write and truncate both failing: %v", first)
	}
	fs.disarm() // the file would take writes again; the tail is still unknown
	if err := fi.SpillFlows(flowBatch(20, 10, 1)); err != first {
		t.Fatalf("spill into a poisoned log: %v, want the sticky %v", err, first)
	}
	if n := fs.count("write", "w.flog") - writes; n != 1 {
		t.Fatalf("%d writes reached a log whose tail is unknown, want the 1 that failed", n)
	}
	wantFlows(t, fi, 0, 10, true) // reads are unaffected
	wantFlows(t, fi, 10, 20, false)
	s.Close()

	s2 := openT(t, dir, Config{}).SetFlowCompactAfter(-1)
	fi2 := flowIndexT(t, s2, "w")
	if torn := s2.StatsSnapshot().TornRecords; torn == 0 {
		t.Fatal("reopen did not see the partial frame the cut failed to remove")
	}
	wantFlows(t, fi2, 0, 10, true)
	wantFlows(t, fi2, 10, 20, false)
}

// TestFailedIndexReopenKeepsTheOldHandle: the new index is renamed into
// place and then cannot be opened. The old handle (now an unlinked file)
// and the overlay must go on answering lookups, and the next compaction
// must merge from them — closing the old handle first left every later
// lookup and compaction failing on a closed file.
func TestFailedIndexReopenKeepsTheOldHandle(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{}, fs).SetFlowCompactAfter(-1)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 40, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows(flowBatch(30, 40, 2)); err != nil { // 10 updates, 30 new
		t.Fatal(err)
	}
	fs.arm(fault{op: "open", name: "w.fidx", n: 1})
	if err := fi.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("compaction whose new index cannot be opened: %v", err)
	}
	if fi.idxCount != 40 || len(fi.overlay) != 40 {
		t.Fatalf("after the failed swap the index says %d entries with %d in the overlay, want the old 40 and 40", fi.idxCount, len(fi.overlay))
	}
	wantFlows(t, fi, 0, 70, true)
	if got, _, _ := fi.LookupFlow(spread(35)); got.Packets != 2 {
		t.Fatalf("updated flow 35 reads %d packets through the old index, want the overlay's 2", got.Packets)
	}
	if err := fi.Compact(); err != nil {
		t.Fatalf("compaction after the failed swap: %v", err)
	}
	if n, err := fi.FlowCount(); err != nil || n != 70 || checkIdxFile(t, filepath.Join(dir, "w.fidx")) != 70 {
		t.Fatalf("FlowCount = %d, %v; want 70, on disk too", n, err)
	}
	wantFlows(t, fi, 0, 70, true)
	s.Close()

	s2 := openT(t, dir, Config{})
	fi2 := flowIndexT(t, s2, "w")
	wantFlows(t, fi2, 0, 70, true)
	if got, _, _ := fi2.LookupFlow(spread(35)); got.Packets != 2 {
		t.Fatalf("updated flow 35 reads %d packets after a reopen", got.Packets)
	}
}

// TestMergeReadErrorLeavesIndexAndOverlay: the old index turns out
// shorter than its entry count mid-merge. The compaction fails without
// touching the .fidx, the overlay or the spill log, and leaves no temp
// file behind.
func TestMergeReadErrorLeavesIndexAndOverlay(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{}).SetFlowCompactAfter(-1)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 40, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows(flowBatch(40, 10, 1)); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "w.fidx")
	if err := os.Truncate(idxPath, 25*flowEntrySize+7); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err == nil || !strings.Contains(err.Error(), "old index ends at entry 25 of 40") {
		t.Fatalf("compaction over a short index: %v", err)
	}
	if st, err := os.Stat(idxPath); err != nil || st.Size() != 25*flowEntrySize+7 {
		t.Fatalf("the failed compaction replaced the index: %v, %v", st, err)
	}
	if len(fi.overlay) != 10 || fi.log.size == 0 {
		t.Fatalf("the failed compaction dropped the overlay (%d entries) or the log (%d bytes)", len(fi.overlay), fi.log.size)
	}
	wantFlows(t, fi, 40, 10, true)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("the failed compaction left %s behind", e.Name())
		}
	}
}

// FuzzFlowIndexMerge is the flow index's oracle test: it drives one index
// from the input — spill batches over 48 hashes (so most are revisits),
// spill batches whose write fails half way and is cut back, forced
// compactions, FlowCount (which compacts), close and reopen — beside a
// plain map. After every step each flow in the map must read back as its
// newest record, the index's distinct-flow count (counted without
// compacting, so the overlay keeps whatever shape the input gave it)
// must equal the map's size, and the .fidx on disk must be strictly
// increasing by hash; FlowCount itself must agree whenever the input
// calls it and at the end. The overlay holds offsets into the spill log,
// so a stale one — kept past a cut, a compaction's truncate or a reopen —
// reads another flow's entry or none, and fails a lookup or a merge.
func FuzzFlowIndexMerge(f *testing.F) {
	// An op byte b is b%6: 0 and 1 spill the next b/6%12+1 bytes as a
	// batch, 2 compacts, 3 reopens, 4 calls FlowCount, 5 spills a batch
	// whose write fails.
	f.Add([]byte{0, 1, 2, 0, 1, 2, 3})                                                                                  // put, compact, overwrite, compact, reopen
	f.Add([]byte{66, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 2, 4})                                                    // a 12-record batch, reopen with a log to replay, compact
	f.Add([]byte{12, 47, 46, 45, 2, 12, 0, 46, 1, 2, 12, 47, 24, 44})                                                   // overlay records below, between and above the old entries
	f.Add([]byte{6, 9, 9, 2, 2, 11, 9, 7, 0, 9, 3, 4})                                                                  // a batch repeating one hash; compacting nothing twice; a failed batch; reopen
	f.Add([]byte{66, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 66, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 0, 25}) // the overlay threshold fires mid-input
	f.Add([]byte{12, 1, 2, 3, 17, 2, 4, 5, 12, 6, 7, 8, 2, 5, 1, 3, 11, 9, 10, 0, 10})                                  // failed batches between good ones, across a compaction and a reopen
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		cfg := Config{Dir: t.TempDir(), Fsync: FsyncNone}
		fs := &faultFS{}
		s := openFaultT(t, cfg.Dir, cfg, fs).SetCompactAfter(-1).SetFlowCompactAfter(24)
		fi := flowIndexT(t, s, "w")
		oracle := map[uint64]session.SpillRecord{}
		check := func(step int) {
			t.Helper()
			for h, want := range oracle {
				if got, ok, err := fi.LookupFlow(h); err != nil || !ok || got != want {
					t.Fatalf("step %d: flow %#x = %+v, %v, %v; want %+v", step, h, got, ok, err, want)
				}
			}
			if _, ok, err := fi.LookupFlow(12345); ok || err != nil {
				t.Fatalf("step %d: a flow never spilled was found (err %v)", step, err)
			}
			fi.mu.Lock()
			distinct := fi.idxCount
			for h := range fi.overlay {
				if _, ok, err := fi.searchIdxLocked(h); err != nil {
					t.Fatal(err)
				} else if !ok {
					distinct++
				}
			}
			onDisk := fi.idxCount
			fi.mu.Unlock()
			if distinct != len(oracle) {
				t.Fatalf("step %d: index and overlay hold %d distinct flows, the oracle %d", step, distinct, len(oracle))
			}
			if n := checkIdxFile(t, filepath.Join(cfg.Dir, "w.fidx")); n != onDisk {
				t.Fatalf("step %d: w.fidx holds %d entries, the index says %d", step, n, onDisk)
			}
		}
		flowCount := func(step int) {
			t.Helper()
			if n, err := fi.FlowCount(); err != nil || n != len(oracle) {
				t.Fatalf("step %d: FlowCount = %d, %v; the oracle holds %d", step, n, err, len(oracle))
			}
		}
		var batch []session.SpillRecord
		for step := 1; len(data) > 0; step++ {
			op := data[0]
			data = data[1:]
			switch op % 6 {
			case 0, 1, 5:
				n := min(int(op/6)%12+1, len(data))
				batch = batch[:0]
				for i, b := range data[:n] {
					batch = append(batch, rec(spread(uint64(b%48)), uint32(b), uint64(step)<<8|uint64(i)))
				}
				data = data[n:]
				if op%6 == 5 && n > 0 {
					// Half the frame lands, the write fails, the log is cut back:
					// the batch must leave no trace, in the overlay or on disk.
					fs.arm(fault{op: "write", name: "w.flog", n: 1})
					err := fi.SpillFlows(batch)
					fs.disarm()
					if !errors.Is(err, errInjected) {
						t.Fatalf("step %d: spill over a failing write: %v", step, err)
					}
					break
				}
				if err := fi.SpillFlows(batch); err != nil {
					t.Fatalf("step %d: spill: %v", step, err)
				}
				for _, r := range batch {
					oracle[r.Hash] = r
				}
			case 2:
				if err := fi.Compact(); err != nil {
					t.Fatalf("step %d: compact: %v", step, err)
				}
			case 3:
				if err := s.Close(); err != nil {
					t.Fatalf("step %d: close: %v", step, err)
				}
				s = openFaultT(t, cfg.Dir, cfg, fs).SetCompactAfter(-1).SetFlowCompactAfter(24)
				fi = flowIndexT(t, s, "w")
			case 4:
				flowCount(step)
			}
			check(step)
		}
		flowCount(-1)
		check(-1)
	})
}
