package statestore

// crashpoint_test.go stops a recorded run of the store at every disk
// call it made and reopens what a kill -9 there would have left.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/domain"
	"repro/internal/packet"
	"repro/internal/session"
)

// replayTo builds in dir the disk that a kill -9 right after the calls
// ops[:k] leaves — and, when torn is set, in the middle of ops[k], a write, with
// half its bytes landed. The page cache survives a killed process, so an
// fsync changes nothing here: power loss, where unsynced bytes vanish,
// is out of this test's scope.
func replayTo(t *testing.T, dir string, ops []diskCall, k int, torn bool) {
	t.Helper()
	if torn {
		k++
	}
	for i, op := range ops[:k] {
		p := filepath.Join(dir, op.name)
		var err error
		switch op.op {
		case "create", "createtemp":
			var f *os.File
			if f, err = os.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
				err = f.Close()
			}
		case "write":
			data := op.data
			if torn && i == k-1 {
				data = data[:len(data)/2]
			}
			var f *os.File
			if f, err = os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0); err == nil {
				_, err = f.Write(data)
				f.Close()
			}
		case "truncate":
			err = os.Truncate(p, op.size)
		case "rename":
			err = os.Rename(p, filepath.Join(dir, op.to))
		case "remove":
			if err = os.Remove(p); os.IsNotExist(err) {
				err = nil // the store's remove of a temp file it renamed
			}
		}
		if err != nil {
			t.Fatalf("replaying %s %s: %v", op.op, op.name, err)
		}
	}
}

// changesDisk are the calls a crash can stop after.
var changesDisk = map[string]bool{"create": true, "createtemp": true, "write": true, "sync": true, "truncate": true, "rename": true, "remove": true}

// crashEpoch is one epoch the script persisted: its token, the session
// table it restores, and the call count once PersistEpoch returned (-1
// until it did).
type crashEpoch struct {
	seq     uint64
	payload []byte
	table   map[uint64]packet.IPv4
	ack     int
}

// crashSpill is one flow record the script spilled, acknowledged as above.
type crashSpill struct {
	rec session.SpillRecord
	ack int
}

// TestEveryCrashPointRecovers records one run — WAL appends, a first
// and a second WAL compaction, spills, a first index compaction and a
// streaming merge into an existing index — and replays it, stopping
// after every write, fsync, truncate, rename and remove and inside every
// write. Each time a reopen over the real disk must find:
//   - the WAL and the spill log cut to their longest valid prefix;
//   - every acknowledged epoch, or a newer one that was in flight, and
//     its token must restore the session table it was taken from;
//   - every acknowledged flow, or a newer record of it that was in
//     flight (which holds only if each compaction put its new index in
//     place before it cut the log), and no flow that was never spilled.
func TestEveryCrashPointRecovers(t *testing.T) {
	cfg := Config{Dir: filepath.Join(t.TempDir(), "store")}
	fs := &faultFS{}
	s, err := open(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompactAfter(-1).SetFlowCompactAfter(-1)
	fi, err := s.FlowIndex("w")
	if err != nil {
		t.Fatal(err)
	}
	epochs := map[string][]*crashEpoch{}
	spills := map[uint64][]*crashSpill{}
	persist := func(name string, seq uint64, flows int) error {
		payload, _, tbl := sessionEpoch(t, flows)
		e := &crashEpoch{seq: seq, payload: payload, table: tbl.Entries(), ack: -1}
		epochs[name] = append(epochs[name], e)
		err := s.PersistEpoch(name, seq, payload)
		e.ack = len(fs.calls)
		return err
	}
	spill := func(from, n int, pkts uint64) error {
		batch := flowBatch(from, n, pkts)
		var now []*crashSpill
		for _, r := range batch {
			c := &crashSpill{rec: r, ack: -1}
			spills[r.Hash] = append(spills[r.Hash], c)
			now = append(now, c)
		}
		err := fi.SpillFlows(batch)
		for _, c := range now {
			c.ack = len(fs.calls)
		}
		return err
	}
	for i, step := range []func() error{
		func() error { return persist("a", 1, 5) },
		func() error { return persist("b", 1, 8) },
		s.Compact, // the first base.db
		func() error { return persist("a", 2, 10) },
		func() error { return spill(0, 20, 1) },
		fi.Compact, // the first index
		func() error { return spill(10, 20, 2) },
		fi.Compact, // a streaming merge into it
		func() error { return spill(25, 10, 3) },
		func() error { return persist("b", 2, 12) },
		s.Compact, // a base.db over the last one
		func() error { return persist("a", 3, 3) },
		s.Close,
	} {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	ops := fs.calls
	root := t.TempDir()
	points := 0
	for k := 0; k <= len(ops); k++ {
		for _, torn := range []bool{false, true} {
			if !torn && k > 0 && !changesDisk[ops[k-1].op] {
				continue // the same disk as the call before
			}
			if torn && (k == len(ops) || ops[k].op != "write" || len(ops[k].data) < 2) {
				continue
			}
			what := fmt.Sprintf("crash after %d of %d disk calls", k, len(ops))
			if torn {
				what = fmt.Sprintf("crash inside call %d (%s of %d bytes to %s)", k+1, ops[k].op, len(ops[k].data), ops[k].name)
			}
			dir := filepath.Join(root, fmt.Sprint(points))
			points++
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			replayTo(t, dir, ops, k, torn)
			checkCrashPoint(t, what, dir, k, epochs, spills)
		}
	}
	t.Logf("%d disk calls, %d crash points", len(ops), points)
}

// checkCrashPoint reopens dir, replayed to k disk calls, and holds it to
// what TestEveryCrashPointRecovers promises.
func checkCrashPoint(t *testing.T, what, dir string, k int, epochs map[string][]*crashEpoch, spills map[uint64][]*crashSpill) {
	t.Helper()
	prefix := func(name string) int64 {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		_, n := SplitFrames(data)
		return int64(n)
	}
	walPrefix, logPrefix := prefix(walName), prefix("w.flog")
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	s.SetCompactAfter(-1).SetFlowCompactAfter(-1)
	defer s.Close()
	fi, err := s.FlowIndex("w")
	if err != nil {
		t.Fatalf("%s: reopen the index: %v", what, err)
	}
	if s.WALSize() != walPrefix || fi.log.size != logPrefix {
		t.Fatalf("%s: the WAL and spill log are %d and %d bytes, their longest valid prefixes %d and %d", what, s.WALSize(), fi.log.size, walPrefix, logPrefix)
	}
	for name, tries := range epochs {
		acked := uint64(0)
		for _, e := range tries {
			if e.ack >= 0 && e.ack <= k {
				acked = e.seq
			}
		}
		payload, seq, ok, err := s.LastEpoch(name)
		if err != nil || (acked > 0 && (!ok || seq < acked)) {
			t.Fatalf("%s: LastEpoch(%s) = seq %d, %v, %v; epoch %d was acknowledged", what, name, seq, ok, err, acked)
		}
		if !ok {
			continue
		}
		var e *crashEpoch
		for _, try := range tries {
			if try.seq == seq {
				e = try
			}
		}
		if e == nil || string(payload) != string(e.payload) {
			t.Fatalf("%s: %s recovered epoch %d, which is not the one persisted under it", what, name, seq)
		}
		tbl := session.NewTable()
		set := domain.NewStateSet().Add("session", tbl)
		if tok, err := set.DecodeToken(payload); err != nil {
			t.Fatalf("%s: decode epoch %d of %s: %v", what, seq, name, err)
		} else if err := set.Restore(tok); err != nil {
			t.Fatalf("%s: restore epoch %d of %s: %v", what, seq, name, err)
		}
		if got := tbl.Entries(); len(got) != len(e.table) {
			t.Fatalf("%s: epoch %d of %s restores %d flows, it was taken over %d", what, seq, name, len(got), len(e.table))
		} else {
			for h, ip := range e.table {
				if got[h] != ip {
					t.Fatalf("%s: epoch %d of %s restores flow %#x to %v, want %v", what, seq, name, h, got[h], ip)
				}
			}
		}
	}
	for h, tries := range spills {
		newest := -1 // the newest acknowledged record; any after it may be there instead
		for i, c := range tries {
			if c.ack >= 0 && c.ack <= k {
				newest = i
			}
		}
		got, ok, err := fi.LookupFlow(h)
		if err != nil || (newest >= 0 && !ok) {
			t.Fatalf("%s: flow %#x = %v, %v; it was acknowledged", what, h, ok, err)
		}
		found := !ok
		for _, c := range tries[max(newest, 0):] {
			found = found || c.rec == got
		}
		if !found {
			t.Fatalf("%s: flow %#x reads %+v, older than acknowledged or never spilled", what, h, got)
		}
	}
	if _, ok, err := fi.LookupFlow(12345); ok || err != nil {
		t.Fatalf("%s: a flow never spilled was found (err %v)", what, err)
	}
}
