package statestore

// readfault_test.go faults the reads the store makes of its own files:
// an epoch read back by LastEpoch or copied by a compaction (wal.log,
// base.db) and a spilled flow read back from its .flog by a lookup or a
// merge. Each must surface as an error the caller acts on — a Spawn
// error, a restore fault, a spill error, a failed compaction that leaves
// everything as it was — never as a cold start or someone else's bytes.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/linear"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
)

// sessionEpoch is one epoch of a StateSet over a session table tracking
// flows [0, n), and the set and table it was captured from.
func sessionEpoch(t *testing.T, n int) ([]byte, *domain.StateSet, *session.Table) {
	t.Helper()
	tbl := session.NewTable()
	for i := 0; i < n; i++ {
		tbl.Track(packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: packet.Addr(10, 99, 0, 1), SrcPort: uint16(1024 + i), DstPort: 80, Proto: 17}, packet.Addr(10, 1, 0, 1), 64)
	}
	set := domain.NewStateSet().Add("session", tbl)
	tok, err := set.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := set.EncodeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	return payload, set, tbl
}

// TestFailedEpochReadFailsSpawn: a durable epoch that cannot be read
// back — from the WAL, or from base.db after a compaction — is a Spawn
// error naming the read, not a domain that boots cold; once the file
// reads again the same domain boots restored.
func TestFailedEpochReadFailsSpawn(t *testing.T) {
	for _, inBase := range []bool{false, true} {
		name := "wal"
		if inBase {
			name = "base"
		}
		t.Run(name, func(t *testing.T) {
			fs := &faultFS{}
			s := openFaultT(t, t.TempDir(), Config{}, fs).SetCompactAfter(-1)
			payload, _, tbl := sessionEpoch(t, 20)
			if err := s.PersistEpoch("worker-0", 1, payload); err != nil {
				t.Fatal(err)
			}
			if inBase {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				fs.arm(fault{op: "read", name: baseName, n: -1})
			} else {
				fs.arm(fault{op: "read", name: walName, n: -1})
			}
			if _, _, _, err := s.LastEpoch("worker-0"); !errors.Is(err, errInjected) {
				t.Fatalf("LastEpoch over a failing read = %v, want the injected error", err)
			}
			spawn := func() (*domain.Domain[int], *session.Table, error) {
				sup := domain.NewSupervisor(domain.Policy{CheckpointEvery: time.Hour, Persist: s}, sim.Wall{})
				t.Cleanup(sup.Close)
				fresh := session.NewTable()
				d, err := domain.Spawn(sup, domain.Config[int]{
					Name:    "worker-0",
					State:   domain.NewStateSet().Add("session", fresh),
					Handler: func(msg linear.Owned[int]) error { _, err := msg.Into(); return err },
				})
				return d, fresh, err
			}
			if _, _, err := spawn(); !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "load durable epoch") {
				t.Fatalf("Spawn over a failing epoch read = %v, want a load error wrapping the injected one", err)
			}
			fs.disarm()
			d, fresh, err := spawn()
			if err != nil {
				t.Fatal(err)
			}
			if sn := d.Snapshot(); sn.Restores != 1 || sn.ColdStarts != 0 || fresh.Len() != tbl.Len() {
				t.Fatalf("boot after the read recovered: %d restores, %d cold starts, %d of %d flows", sn.Restores, sn.ColdStarts, fresh.Len(), tbl.Len())
			}
		})
	}
}

// TestFailedEpochReadIsARestoreFault: a durable domain's last good epoch
// is the store's record, so a restart reads it back. While that read
// fails, every restart attempt is a counted restore fault — the domain
// never comes back cold — and the first attempt after the file reads
// again restores the state the last epoch captured.
func TestFailedEpochReadIsARestoreFault(t *testing.T) {
	sc := newOwnScript(t)
	sc.epoch(0, true)
	wk := sc.workers[0]
	want := wk.tbl.Entries()
	before := wk.dom.Snapshot()
	sc.fs.arm(fault{op: "read", name: walName, n: -1})
	// The parked capture runs and persists (an append reads nothing), then
	// the handler crashes and the restart has to read the epoch back.
	if err := wk.dom.Inbox().Send(linear.New(func() { panic("readfault: injected handler crash") })); err != nil {
		t.Fatal(err)
	}
	wk.state.permits <- struct{}{}
	sc.wait("three failed restores", func() bool {
		return wk.dom.Snapshot().CheckpointFailures >= before.CheckpointFailures+3
	})
	if sn := wk.dom.Snapshot(); sn.Restarts != before.Restarts || sn.ColdStarts != 0 || sn.Restores != before.Restores {
		t.Fatalf("while the epoch cannot be read: %d restarts, %d cold starts, %d restores; want %d, 0, %d",
			sn.Restarts, sn.ColdStarts, sn.Restores, before.Restarts, before.Restores)
	}
	sc.fs.disarm()
	sc.wait("the restart once the epoch reads", func() bool { return wk.dom.Snapshot().Restarts > before.Restarts })
	sc.settle()
	got := wk.tbl.Entries()
	if len(got) != len(want) {
		t.Fatalf("restored %d flows, the last epoch held %d", len(got), len(want))
	}
	for h, ip := range want {
		if got[h] != ip {
			t.Fatalf("flow %x restored to %v, want %v", h, got[h], ip)
		}
	}
	if sn := wk.dom.Snapshot(); sn.Restores != before.Restores+1 || sn.ColdStarts != 0 {
		t.Fatalf("%d restores, %d cold starts after the read recovered; want %d, 0", sn.Restores, sn.ColdStarts, before.Restores+1)
	}
	sc.verify(true)
}

// TestFailedReadMidCompactionLeavesTheStore: a compaction whose read of
// an epoch fails — in the WAL before anything is written, or in base.db
// after another epoch was copied — leaves base.db, the WAL and what
// LastEpoch reads as they were, and no temp file; the next compaction
// succeeds and a reopen sees it.
func TestFailedReadMidCompactionLeavesTheStore(t *testing.T) {
	for _, which := range []string{"wal", "base"} {
		t.Run(which, func(t *testing.T) {
			dir, fs := t.TempDir(), &faultFS{}
			s := openFaultT(t, dir, Config{}, fs).SetCompactAfter(-1)
			for _, e := range []struct {
				name string
				seq  uint64
			}{{"a", 1}, {"b", 1}} {
				if err := s.PersistEpoch(e.name, e.seq, []byte(e.name+"-1")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := s.PersistEpoch("a", 2, []byte("a-2")); err != nil { // a in the WAL, b in base.db
				t.Fatal(err)
			}
			basePath := filepath.Join(dir, baseName)
			baseBefore, err := os.ReadFile(basePath)
			if err != nil {
				t.Fatal(err)
			}
			walBefore := s.WALSize()
			fs.arm(fault{op: "read", name: map[string]string{"wal": walName, "base": baseName}[which], n: -1})
			if err := s.Compact(); !errors.Is(err, errInjected) {
				t.Fatalf("compaction over a failing read = %v, want the injected error", err)
			}
			if got, _ := os.ReadFile(basePath); string(got) != string(baseBefore) {
				t.Fatal("the failed compaction replaced base.db")
			}
			if st, err := os.Stat(filepath.Join(dir, walName)); err != nil || st.Size() != walBefore || s.WALSize() != walBefore {
				t.Fatalf("the failed compaction touched the WAL (%d bytes, store says %d), want %d", st.Size(), s.WALSize(), walBefore)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Fatalf("the failed compaction left %s behind", e.Name())
				}
			}
			fs.disarm()
			check := func(s *Store, what string) {
				t.Helper()
				for name, want := range map[string]string{"a": "a-2", "b": "b-1"} {
					if got, _, ok, err := s.LastEpoch(name); err != nil || !ok || string(got) != want {
						t.Fatalf("%s: LastEpoch(%s) = %q, %v, %v; want %q", what, name, got, ok, err, want)
					}
				}
			}
			check(s, "after the failed compaction")
			if err := s.Compact(); err != nil {
				t.Fatalf("the compaction after a failed one: %v", err)
			}
			check(s, "after the next compaction")
			s.Close()
			check(openT(t, dir, Config{}), "after a reopen")
		})
	}
}

// TestFailedLogReadMidMergeLeavesIndexAndOverlay: a flow-index
// compaction that cannot read an overlay flow back from the spill log
// fails without touching the .fidx, the overlay or the log, and the next
// compaction merges everything.
func TestFailedLogReadMidMergeLeavesIndexAndOverlay(t *testing.T) {
	dir, fs := t.TempDir(), &faultFS{}
	s := openFaultT(t, dir, Config{}, fs).SetFlowCompactAfter(-1)
	fi := flowIndexT(t, s, "w")
	if err := fi.SpillFlows(flowBatch(0, 40, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fi.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows(flowBatch(30, 20, 2)); err != nil { // 10 updates, 10 new
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "w.fidx")
	idxBefore, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	logSize, overlay := fi.log.size, len(fi.overlay)
	fs.arm(fault{op: "read", name: "w.flog", n: -1})
	if err := fi.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("merge over a failing log read = %v, want the injected error", err)
	}
	if got, _ := os.ReadFile(idxPath); string(got) != string(idxBefore) {
		t.Fatal("the failed merge replaced the index")
	}
	if fi.log.size != logSize || len(fi.overlay) != overlay {
		t.Fatalf("the failed merge left a %d-byte log and %d overlay flows, want %d and %d", fi.log.size, len(fi.overlay), logSize, overlay)
	}
	fs.disarm()
	if n, err := fi.FlowCount(); err != nil || n != 50 {
		t.Fatalf("FlowCount after the failed merge = %d, %v; want 50", n, err)
	}
	wantFlows(t, fi, 0, 50, true)
	if got, _, _ := fi.LookupFlow(spread(35)); got.Packets != 2 {
		t.Fatalf("updated flow 35 reads %d packets after the merge, want 2", got.Packets)
	}
}

// TestFailedOverlayReadPromotesNothing: a spilled flow whose entry cannot
// be read back is a spill error to the session table, which then tracks
// the flow afresh on the backend it was given — it never promotes a
// record it did not read. And an overlay offset that has gone stale reads
// another flow's entry: that is an error too, never that flow's record.
func TestFailedOverlayReadPromotesNothing(t *testing.T) {
	fs := &faultFS{}
	s := openFaultT(t, t.TempDir(), Config{}, fs).SetFlowCompactAfter(-1)
	fi := flowIndexT(t, s, "w")
	tbl := session.NewTable()
	tbl.SetSpill(fi, 16)
	tuple := func(i int) packet.FiveTuple {
		return packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: packet.Addr(10, 99, 0, 1), SrcPort: uint16(1024 + i), DstPort: 80, Proto: 17}
	}
	oldBackend, newBackend := packet.Addr(10, 1, 0, 1), packet.Addr(10, 1, 0, 2)
	for i := 0; i < 32; i++ {
		tbl.Track(tuple(i), oldBackend, 64)
	}
	resident := tbl.Entries()
	var spilled []packet.FiveTuple
	for i := 0; i < 32; i++ {
		if _, ok := resident[tuple(i).Hash()]; !ok {
			spilled = append(spilled, tuple(i))
		}
	}
	if len(spilled) < 2 || len(fi.overlay) != len(spilled) {
		t.Fatalf("%d flows spilled, %d in the overlay; want at least 2, all of them", len(spilled), len(fi.overlay))
	}

	fs.arm(fault{op: "read", name: "w.flog", n: -1})
	h := spilled[0].Hash()
	if rec, ok, _ := fi.LookupFlow(h); ok {
		t.Fatalf("a lookup through a failing log found backend %v", rec.Backend)
	}
	_, promoted, errs := tbl.SpillStats()
	tbl.Track(spilled[0], newBackend, 64)
	if _, p, e := tbl.SpillStats(); p != promoted || e != errs+1 {
		t.Fatalf("track of a flow whose entry cannot be read: %d promotions and %d spill errors, want %d and %d", p, e, promoted, errs+1)
	}
	if got := tbl.Entries()[h]; got != newBackend {
		t.Fatalf("the flow tracks backend %v, want the %v it was given", got, newBackend)
	}
	fs.disarm()

	a, b := spilled[1].Hash(), spilled[0].Hash()
	fi.mu.Lock()
	i, _ := fi.findLocked(a)
	j, _ := fi.findLocked(b)
	fi.overlay[i].off = fi.overlay[j].off
	fi.mu.Unlock()
	if r, ok, err := fi.LookupFlow(a); err == nil || ok {
		t.Fatalf("a stale overlay offset read as %+v, %v, %v; want an error", r, ok, err)
	}
}
