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
// streaming merge into an existing index, then streamed epochs: one of
// four chunks, two domains' streams interleaved, an aborted stream, a
// compaction of streamed epochs, one more stream over it, and a stream
// that a compaction finds open — and replays it, stopping
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
	// stream writes the epochs as chunks of at most chunk bytes, one
	// chunk of each domain's in turn — their streams interleave in the
	// WAL — committing each once its rest fits a chunk, then syncs them.
	type streamed struct {
		name  string
		seq   uint64
		flows int
	}
	stream := func(chunk int, eps ...streamed) error {
		es := make([]*crashEpoch, len(eps))
		index := make([]int, len(eps))
		for i, ep := range eps {
			payload, _, tbl := sessionEpoch(t, ep.flows)
			es[i] = &crashEpoch{seq: ep.seq, payload: payload, table: tbl.Entries(), ack: -1}
			epochs[ep.name] = append(epochs[ep.name], es[i])
		}
		committed := make([]bool, len(eps))
		for open := len(eps); open > 0; {
			for i, ep := range eps {
				if committed[i] {
					continue
				}
				rest := es[i].payload[index[i]*chunk:]
				if len(rest) > chunk {
					if err := s.AppendChunk(ep.name, ep.seq, index[i], rest[:chunk]); err != nil {
						return err
					}
					index[i]++
					continue
				}
				if err := s.CommitEpoch(ep.name, ep.seq, index[i], rest); err != nil {
					return err
				}
				committed[i], open = true, open-1
			}
		}
		for i, ep := range eps {
			if err := s.SyncEpoch(ep.name); err != nil {
				return err
			}
			es[i].ack = len(fs.calls)
		}
		return nil
	}
	// abort streams chunks chunks of an epoch and aborts it: orphans,
	// which no reopen may take for an epoch.
	abort := func(name string, seq uint64, flows, chunks, chunk int) error {
		payload, _, _ := sessionEpoch(t, flows)
		for i := 0; i < chunks; i++ {
			if err := s.AppendChunk(name, seq, i, payload[i*chunk:(i+1)*chunk]); err != nil {
				return err
			}
		}
		s.AbortEpoch(name, seq)
		return nil
	}
	// carried streams an epoch of three chunks and compacts after its
	// first: the compaction carries the open stream into base.db, and
	// the stream goes on in the emptied WAL.
	carried := func(name string, seq uint64, flows, chunk int) error {
		payload, _, tbl := sessionEpoch(t, flows)
		e := &crashEpoch{seq: seq, payload: payload, table: tbl.Entries(), ack: -1}
		epochs[name] = append(epochs[name], e)
		if err := s.AppendChunk(name, seq, 0, payload[:chunk]); err != nil {
			return err
		}
		if err := s.Compact(); err != nil {
			return err
		}
		if err := s.AppendChunk(name, seq, 1, payload[chunk:2*chunk]); err != nil {
			return err
		}
		if err := s.CommitEpoch(name, seq, 2, payload[2*chunk:]); err != nil {
			return err
		}
		err := s.SyncEpoch(name)
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
		func() error { return stream(4000, streamed{"a", 4, 300}) },                        // four chunks
		func() error { return stream(3000, streamed{"a", 5, 200}, streamed{"b", 3, 250}) }, // interleaved
		func() error { return abort("a", 6, 300, 2, 4000) },
		s.Compact, // streamed epochs into base.db
		func() error { return stream(4000, streamed{"b", 4, 280}) },
		func() error { return carried("a", 7, 300, 4000) },
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
