package statestore

// stream_test.go covers epochs that reach the WAL as chunks: the record
// rules a stream follows live and on replay, a restart that takes an
// orphaned seq again, compaction that carries open streams, one domain's
// blocked capture beside another's epochs, and what a live domain's
// compactions allocate.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/linear"
	"repro/internal/sim"
)

// streamT streams payload as epoch seq of name in chunks of at most
// chunk bytes — all but the last through AppendChunk, the last as the
// commit — and syncs it.
func streamT(s *Store, name string, seq uint64, payload []byte, chunk int) error {
	index := 0
	for ; len(payload) > chunk; index++ {
		if err := s.AppendChunk(name, seq, index, payload[:chunk]); err != nil {
			return err
		}
		payload = payload[chunk:]
	}
	if err := s.CommitEpoch(name, seq, index, payload); err != nil {
		return err
	}
	return s.SyncEpoch(name)
}

// walKinds returns the first byte of every record in the store's WAL.
func walKinds(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := SplitFrames(data)
	var kinds []byte
	for _, r := range recs {
		kinds = append(kinds, r[0])
	}
	return kinds
}

// wantEpoch fails unless LastEpoch(name) is epoch seq with payload.
func wantEpoch(t *testing.T, s *Store, what, name string, seq uint64, payload []byte) {
	t.Helper()
	got, gotSeq, ok, err := s.LastEpoch(name)
	if err != nil || !ok || gotSeq != seq || !bytes.Equal(got, payload) {
		t.Fatalf("%s: LastEpoch(%s) = seq %d (ok %v, err %v, %d bytes, equal %v), want seq %d",
			what, name, gotSeq, ok, err, len(got), bytes.Equal(got, payload), seq)
	}
}

// TestStreamedEpochReadsBackWhole: a five-chunk epoch is chunk records
// and a commit in the WAL, reads back as one payload that restores the
// table it was taken from, and stays whole through a compaction, a
// reopen and the next epoch; a one-chunk epoch is PersistEpoch's record.
func TestStreamedEpochReadsBackWhole(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
	payload, _, tbl := sessionEpoch(t, 1000)
	if err := streamT(s, "a", 1, payload, 10000); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitEpoch("b", 1, 0, []byte("small")); err != nil {
		t.Fatal(err)
	}
	if got, want := walKinds(t, dir), []byte{chunkKind, chunkKind, chunkKind, chunkKind, commitKind, epochVersion}; !bytes.Equal(got, want) {
		t.Fatalf("WAL record kinds %v, want %v", got, want)
	}
	wantEpoch(t, s, "live", "a", 1, payload)
	wantEpoch(t, s, "live", "b", 1, []byte("small"))
	_, set, restored := sessionEpoch(t, 0)
	got, _, _, _ := s.LastEpoch("a")
	if tok, err := set.DecodeToken(got); err != nil {
		t.Fatal(err)
	} else if err := set.Restore(tok); err != nil {
		t.Fatal(err)
	}
	want, restoredFlows := tbl.Entries(), restored.Entries()
	if len(restoredFlows) != len(want) {
		t.Fatalf("the streamed epoch restores %d flows, it was taken over %d", len(restoredFlows), len(want))
	}
	for h, ip := range want {
		if restoredFlows[h] != ip {
			t.Fatalf("the streamed epoch restores flow %#x to %v, want %v", h, restoredFlows[h], ip)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	wantEpoch(t, s, "compacted", "a", 1, payload)
	s.Close()
	s = openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
	wantEpoch(t, s, "reopened from base.db", "a", 1, payload)
	wantEpoch(t, s, "reopened from base.db", "b", 1, []byte("small"))
	next, _, _ := sessionEpoch(t, 1500)
	if err := streamT(s, "a", 2, next, 20000); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openT(t, dir, Config{})
	wantEpoch(t, s, "reopened over base and WAL", "a", 2, next)
	if n := s.EpochCount(); n != 2 {
		t.Fatalf("%d domains with an epoch, want 2", n)
	}
}

// TestStreamRecordRules: chunk index 0 opens a stream, only a seq newer
// than the stored epoch may, and it replaces the stream open before it;
// any other chunk must continue the open stream; two domains' streams
// interleave; a compaction carries an open stream; an abort or a crash
// leaves orphans replay ignores.
func TestStreamRecordRules(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s was accepted", what)
		}
	}
	refused("a chunk of no stream", s.AppendChunk("a", 1, 1, []byte("x")))
	refused("a commit of no stream", s.CommitEpoch("a", 1, 1, []byte("x")))

	// Two domains interleaved.
	must(s.AppendChunk("a", 1, 0, []byte("a1-0.")))
	must(s.AppendChunk("b", 1, 0, []byte("b1-0.")))
	refused("a chunk that skips one", s.AppendChunk("a", 1, 2, []byte("x")))
	must(s.AppendChunk("a", 1, 1, []byte("a1-1.")))
	must(s.CommitEpoch("b", 1, 1, []byte("b1-end")))
	must(s.CommitEpoch("a", 1, 2, []byte("a1-end")))
	wantEpoch(t, s, "interleaved", "a", 1, []byte("a1-0.a1-1.a1-end"))
	wantEpoch(t, s, "interleaved", "b", 1, []byte("b1-0.b1-end"))

	// A newer stream replaces an open one, whose chunks go nowhere.
	must(s.AppendChunk("a", 2, 0, []byte("a2-0.")))
	must(s.AppendChunk("a", 3, 0, []byte("a3-0.")))
	refused("a chunk of a replaced stream", s.AppendChunk("a", 2, 1, []byte("x")))
	refused("a commit of a replaced stream", s.CommitEpoch("a", 2, 1, []byte("x")))
	must(s.CommitEpoch("a", 3, 1, []byte("a3-end")))
	refused("a stream no newer than the stored epoch", s.AppendChunk("a", 3, 0, []byte("x")))
	refused("a one-chunk epoch no newer than the stored one", s.PersistEpoch("a", 3, []byte("x")))

	// An aborted stream, which a compaction carried while it was open.
	must(s.AppendChunk("a", 4, 0, []byte("a4-0.")))
	must(s.Compact())
	must(s.AppendChunk("a", 4, 1, []byte("a4-1.")))
	s.AbortEpoch("a", 4)
	refused("a chunk of an aborted stream", s.AppendChunk("a", 4, 2, []byte("x")))
	must(s.Compact())
	wantEpoch(t, s, "after an abort", "a", 3, []byte("a3-0.a3-end"))

	// A stream cut off by a crash: orphans in a valid log.
	must(s.AppendChunk("a", 5, 0, []byte("a5-0.")))
	must(s.AppendChunk("a", 5, 1, []byte("a5-1.")))
	must(s.AppendChunk("b", 2, 0, []byte("b2-0.")))
	must(s.CommitEpoch("b", 2, 1, []byte("b2-end")))
	size := s.WALSize()
	s.Close()
	s = openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
	if s.WALSize() != size {
		t.Fatalf("reopen cut the WAL from %d to %d bytes: orphans are valid frames", size, s.WALSize())
	}
	wantEpoch(t, s, "reopened over orphans", "a", 3, []byte("a3-0.a3-end"))
	wantEpoch(t, s, "reopened over orphans", "b", 2, []byte("b2-0.b2-end"))
	// The restarted writer takes seq 5 again, after the orphans.
	must(s.AppendChunk("a", 5, 0, []byte("A5-0.")))
	must(s.CommitEpoch("a", 5, 1, []byte("A5-end")))
	s.Close()
	s = openT(t, dir, Config{})
	wantEpoch(t, s, "the seq after a crash, reopened", "a", 5, []byte("A5-0.A5-end"))
}

// TestRestartTakesAnOrphanedSeqAgain: a crash leaves a stream of one or
// of several chunks open, and the restarted writer goes on from the
// newest committed epoch, so it opens that stream's seq again, or an
// older one when the crashed process had skipped seqs. Its epoch, a
// stream or a whole record, is the domain's newest after a reopen with
// no compaction between, byte for byte: replay's stream of the orphans
// neither refuses the restarted writer's first record nor takes its
// later chunks.
func TestRestartTakesAnOrphanedSeqAgain(t *testing.T) {
	committed := []byte("a4-0.a4-end")
	for _, orphans := range []int{1, 3} {
		for _, orphanSeq := range []uint64{5, 7} {
			for _, chunks := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%d-orphans-of-%d/%d-chunks", orphans, orphanSeq, chunks), func(t *testing.T) {
					dir := t.TempDir()
					s := openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
					if err := streamT(s, "a", 4, committed, 5); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < orphans; i++ {
						if err := s.AppendChunk("a", orphanSeq, i, []byte(fmt.Sprintf("o%d-%d.", orphanSeq, i))); err != nil {
							t.Fatal(err)
						}
					}
					s.Close()
					s = openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(-1)
					_, seq, _, _ := s.LastEpoch("a")
					payload := bytes.Repeat([]byte("A5."), 4*chunks)
					if err := streamT(s, "a", seq+1, payload, 12); err != nil {
						t.Fatalf("the restarted writer's epoch %d: %v", seq+1, err)
					}
					wantEpoch(t, s, "live", "a", 5, payload)
					s.Close()
					s = openT(t, dir, Config{Fsync: FsyncNone})
					wantEpoch(t, s, "reopened", "a", 5, payload)
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
					s.Close()
					s = openT(t, dir, Config{})
					wantEpoch(t, s, "compacted and reopened", "a", 5, payload)
				})
			}
		}
	}
}

// TestCompactionCarriesOpenStreams: with every sync past the compaction
// threshold, a domain's epoch lands while another domain's stream is
// open, and the compaction runs: the open stream's first chunk goes to
// base.db, the WAL is emptied, and the stream goes on there. It commits,
// reads back whole, and survives a reopen, as do the other epochs; a
// crash between the second compaction's rename and its cut of the WAL
// leaves them too.
func TestCompactionCarriesOpenStreams(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{Fsync: FsyncNone}).SetCompactAfter(1)
	a, _, _ := sessionEpoch(t, 800)
	b, _, _ := sessionEpoch(t, 300)
	if err := s.AppendChunk("a", 1, 0, a[:20000]); err != nil {
		t.Fatal(err)
	}
	if err := s.PersistEpoch("b", 1, b); err != nil {
		t.Fatal(err)
	}
	if c, wal := s.StatsSnapshot().Compactions, s.WALSize(); c != 1 || wal != 0 {
		t.Fatalf("%d compactions, WAL %d bytes with a stream open; want 1 and 0", c, wal)
	}
	if err := s.AppendChunk("a", 1, 1, a[20000:30000]); err != nil {
		t.Fatal(err)
	}
	// What a crash after the next compaction's rename, before its cut of
	// the WAL, leaves: the new base.db beside the old WAL.
	oldWAL, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitEpoch("a", 1, 2, a[30000:]); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncEpoch("a"); err != nil {
		t.Fatal(err)
	}
	if c, wal := s.StatsSnapshot().Compactions, s.WALSize(); c != 2 || wal != 0 {
		t.Fatalf("%d compactions, WAL %d bytes after the stream committed; want 2 and 0", c, wal)
	}
	wantEpoch(t, s, "compacted", "a", 1, a)
	wantEpoch(t, s, "compacted", "b", 1, b)
	s.Close()
	crashed := t.TempDir()
	base, err := os.ReadFile(filepath.Join(dir, baseName))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{baseName: base, walName: oldWAL} {
		if err := os.WriteFile(filepath.Join(crashed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s = openT(t, dir, Config{})
	wantEpoch(t, s, "reopened", "a", 1, a)
	wantEpoch(t, s, "reopened", "b", 1, b)
	s = openT(t, crashed, Config{})
	wantEpoch(t, s, "the new base over the old WAL", "a", 1, a)
	wantEpoch(t, s, "the new base over the old WAL", "b", 1, b)
}

// TestTwoWritesPerStreamedChunk: a streamed chunk reaches the WAL as its
// header and then the caller's chunk, uncopied, as a whole epoch does.
func TestTwoWritesPerStreamedChunk(t *testing.T) {
	fs := &faultFS{}
	s := openFaultT(t, t.TempDir(), Config{Fsync: FsyncNone}, fs).SetCompactAfter(-1)
	if err := streamT(s, "w", 1, bytes.Repeat([]byte{7}, 300), 100); err != nil {
		t.Fatal(err)
	}
	if n := fs.count("write", walName); n != 6 {
		t.Fatalf("a 3-chunk epoch took %d writes, want 6", n)
	}
}

// lockedPart is a StateSet part whose capture waits on mu, which the
// test holds to block a domain mid-stream; entered says a capture is
// waiting on it.
type lockedPart struct {
	mu      sync.Mutex
	entered chan struct{}
}

func (p *lockedPart) CheckpointSize() int {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return 4
}

func (p *lockedPart) StreamCheckpoint(buf []byte, _ func([]byte) ([]byte, error)) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(buf, "lock"...), nil // four bytes: the chunk it is given has room
}

func (p *lockedPart) CheckCheckpoint(data []byte) error {
	if string(data) != "lock" {
		return fmt.Errorf("lockedPart: %q", data)
	}
	return nil
}

func (p *lockedPart) Restore(data []byte) error { return p.CheckCheckpoint(data) }
func (p *lockedPart) Reset()                    {}

// TestBlockedCaptureDelaysNoOtherDomain: two domains stream into one
// store, and one's capture blocks on a part lock with its stream open.
// The other's epochs keep committing meanwhile, the store lock being
// held for one chunk at a time, and the compactions every sync asks for
// run beside the open stream, carrying its chunk; once the blocked
// capture goes on, its epoch commits and reads back whole.
func TestBlockedCaptureDelaysNoOtherDomain(t *testing.T) {
	s := openT(t, t.TempDir(), Config{Fsync: FsyncNone}).SetCompactAfter(1)
	sup := domain.NewSupervisor(domain.Policy{CheckpointEvery: time.Millisecond, Persist: s}, sim.Wall{})
	defer sup.Close()
	_, setA, tblA := sessionEpoch(t, 3000) // two chunks of session table
	lock := &lockedPart{entered: make(chan struct{}, 1)}
	setA.Add("locked", lock)
	_, setB, _ := sessionEpoch(t, 100)
	spawn := func(name string, set *domain.StateSet) *domain.Domain[int] {
		d, err := domain.Spawn(sup, domain.Config[int]{
			Name:    name,
			State:   set,
			Handler: func(linear.Owned[int]) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := spawn("a", setA), spawn("b", setB)
	wait := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	wait("both domains' first epochs", func() bool { return a.Snapshot().Persisted >= 2 && b.Snapshot().Persisted >= 2 })

	lock.mu.Lock()
	select {
	case <-lock.entered:
	default:
	}
	<-lock.entered // a's capture waits on the lock, its session chunk in the store
	held := a.Snapshot().Persisted
	compactions := s.StatsSnapshot().Compactions
	from := b.Snapshot().Persisted
	wait("b's epochs beside a's blocked capture", func() bool { return b.Snapshot().Persisted >= from+20 })
	if c := s.StatsSnapshot().Compactions; c < compactions+20 {
		t.Fatalf("%d compactions over b's 20 epochs while a's stream was open, want one an epoch", c-compactions)
	}
	if n := a.Snapshot().Persisted; n != held {
		t.Fatalf("a persisted %d epochs while its capture was blocked", n-held)
	}
	lock.mu.Unlock()
	wait("a's epoch", func() bool { return a.Snapshot().Persisted > held })
	payload, _, ok, err := s.LastEpoch("a")
	if err != nil || !ok {
		t.Fatalf("a's epoch after the compaction: ok %v, err %v", ok, err)
	}
	_, set, tbl := sessionEpoch(t, 0)
	set.Add("locked", &lockedPart{entered: make(chan struct{}, 1)})
	if tok, err := set.DecodeToken(payload); err != nil {
		t.Fatal(err)
	} else if err := set.Restore(tok); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != tblA.Len() {
		t.Fatalf("a's epoch restores %d flows, it holds %d", tbl.Len(), tblA.Len())
	}
	if sn := a.Snapshot(); sn.PersistFailures != 0 || sn.CheckpointFailures != 0 {
		t.Fatalf("a: %d persist failures, %d checkpoint failures", sn.PersistFailures, sn.CheckpointFailures)
	}
}

// TestLiveEpochCompactionAllocBudget is the root TestLiveEpochAllocBudget
// store subtest with the compactions it keeps out forced in, through
// SetCompactAfter: a live domain streams a 4096-flow epoch every
// millisecond, and the WAL compacts every few epochs. With the names,
// the chunk lists and the copy buffer kept, what a compaction allocates
// is the temp file, the rename and the directory handle, and the base
// handle it keeps: 13 objects (20 before those were kept, and before the
// renamed temp file stopped being removed again).
func TestLiveEpochCompactionAllocBudget(t *testing.T) {
	if raced() {
		t.Skip("under -race, sync.Pool drops a quarter of what it is handed: the count would be the detector's")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const epochs, maxPerCompaction = 200, 13
	s := openT(t, t.TempDir(), Config{Fsync: FsyncNone})
	payload, set, _ := sessionEpoch(t, 4096)
	s.SetCompactAfter(int64(4 * len(payload)))
	sup := domain.NewSupervisor(domain.Policy{CheckpointEvery: time.Millisecond, Persist: s}, sim.Wall{})
	defer sup.Close()
	d, err := domain.Spawn(sup, domain.Config[int]{
		Name:    "worker-0",
		Handler: func(linear.Owned[int]) error { return nil },
		State:   set,
	})
	if err != nil {
		t.Fatal(err)
	}
	taken := func() uint64 { return d.Snapshot().Checkpoints }
	waitEpochs := func(n uint64) {
		for deadline := time.Now().Add(30 * time.Second); taken() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d epochs after 30s, want %d", taken(), n)
			}
		}
	}
	waitEpochs(12) // two compactions: every list and buffer made
	// No collection in the window: one would make sync.Pool remake its
	// per-P arrays there, objects of the runtime's and not a compaction's.
	// So collect first, let an epoch remake them, and run none until the
	// count is read.
	runtime.GC()
	waitEpochs(taken() + 2)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	from, c0 := taken(), s.StatsSnapshot().Compactions
	runtime.ReadMemStats(&before)
	waitEpochs(from + epochs)
	runtime.ReadMemStats(&after)
	n, c := taken()-from, s.StatsSnapshot().Compactions-c0
	objects := float64(after.Mallocs - before.Mallocs)
	t.Logf("%d epochs, %d compactions: %.3f objects per epoch, %.1f per compaction", n, c, objects/float64(n), objects/float64(c))
	if c < 20 {
		t.Fatalf("%d compactions in %d epochs, want at least 20", c, n)
	}
	if per := objects / float64(c); per > maxPerCompaction {
		t.Fatalf("a compaction allocates %.1f objects, want <= %d", per, maxPerCompaction)
	}
	if sn := d.Snapshot(); sn.CheckpointFailures != 0 || sn.Persisted < from+epochs {
		t.Fatalf("snapshot %+v: every epoch should succeed and persist", sn)
	}
}

// raced reports whether the test binary was built with -race.
func raced() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, st := range bi.Settings {
		if st.Key == "-race" {
			return st.Value == "true"
		}
	}
	return false
}
