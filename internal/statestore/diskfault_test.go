package statestore

// diskfault_test.go fails every disk call each operation of the store
// makes, one at a time: a full disk on a write (half the bytes land), an
// I/O error on anything else — a read, a stat, an fsync of a file or of
// the directory, a CreateTemp, a Rename, an OpenFile, a Truncate.

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/session"
)

// faultRun is one store over the fake disk, in a fixed state — epochs of
// a and b, one in base.db and one in the WAL; a flow index with flows in
// its .fidx and in its overlay — and what must read back from it: the
// acknowledged epoch of each domain and record of each flow, and what a
// call that failed may have left instead (it may or may not have landed).
type faultRun struct {
	t          *testing.T
	cfg        Config
	fs         *faultFS
	s          *Store // nil while closed
	fi         *FlowIndex
	epochs     map[string]string
	maybeEpoch map[string][]string
	flows      map[uint64]session.SpillRecord
	maybeFlow  map[uint64][]session.SpillRecord
}

func newFaultRun(t *testing.T) *faultRun {
	t.Helper()
	r := &faultRun{
		t:   t,
		cfg: Config{Dir: filepath.Join(t.TempDir(), "store")},
		fs:  &faultFS{}, epochs: map[string]string{}, maybeEpoch: map[string][]string{},
		flows: map[uint64]session.SpillRecord{}, maybeFlow: map[uint64][]session.SpillRecord{},
	}
	t.Cleanup(func() {
		if r.s != nil {
			r.s.Close()
		}
	})
	var err error
	if r.s, err = open(r.cfg, r.fs); err != nil {
		t.Fatal(err)
	}
	r.s.SetCompactAfter(-1).SetFlowCompactAfter(-1)
	if r.fi, err = r.s.FlowIndex("w"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{
		func() error { return r.persist("a", 1) },
		func() error { return r.persist("b", 1) },
		r.s.Compact,
		func() error { return r.persist("a", 2) },
		func() error { return r.spill(0, 40, 1) },
		r.fi.Compact,
		func() error { return r.spill(30, 20, 2) }, // 10 updates, 10 new
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// persist persists epoch seq of name and notes what may read back.
func (r *faultRun) persist(name string, seq uint64) error {
	payload := fmt.Sprintf("%s-%d", name, seq)
	err := r.s.PersistEpoch(name, seq, []byte(payload))
	if err == nil {
		r.epochs[name] = payload
		delete(r.maybeEpoch, name)
	} else {
		r.maybeEpoch[name] = append(r.maybeEpoch[name], payload)
	}
	return err
}

// spill spills flows [from, from+n) at pkts and notes what may read back.
func (r *faultRun) spill(from, n int, pkts uint64) error {
	batch := flowBatch(from, n, pkts)
	err := r.fi.SpillFlows(batch)
	for _, rec := range batch {
		if err == nil {
			r.flows[rec.Hash] = rec
			delete(r.maybeFlow, rec.Hash)
		} else {
			r.maybeFlow[rec.Hash] = append(r.maybeFlow[rec.Hash], rec)
		}
	}
	return err
}

// check reads every epoch and flow back from s and fi: each must be what
// was acknowledged or what a failed call may have left.
func (r *faultRun) check(what string, s *Store, fi *FlowIndex) {
	r.t.Helper()
	for name, want := range r.epochs {
		got, _, ok, err := s.LastEpoch(name)
		if err != nil || !ok || (string(got) != want && !slices.Contains(r.maybeEpoch[name], string(got))) {
			r.t.Fatalf("%s: LastEpoch(%s) = %q, %v, %v; want %q (or one of %q)", what, name, got, ok, err, want, r.maybeEpoch[name])
		}
	}
	for h, want := range r.flows {
		got, ok, err := fi.LookupFlow(h)
		if err != nil || !ok || (got != want && !slices.Contains(r.maybeFlow[h], got)) {
			r.t.Fatalf("%s: flow %#x = %+v, %v, %v; want %+v", what, h, got, ok, err, want)
		}
	}
	for h, maybe := range r.maybeFlow {
		if _, acked := r.flows[h]; acked {
			continue
		}
		if got, ok, err := fi.LookupFlow(h); err != nil || (ok && !slices.Contains(maybe, got)) {
			r.t.Fatalf("%s: flow %#x, never acknowledged, = %+v, %v, %v", what, h, got, ok, err)
		}
	}
}

// storeOps are the operations the table faults. prep runs before the
// operation's calls are counted.
var storeOps = []struct {
	name string
	prep func(r *faultRun)
	run  func(r *faultRun) error
}{
	{"Open", func(r *faultRun) { r.s.Close(); r.s, r.fi = nil, nil }, func(r *faultRun) (err error) {
		if r.s, err = open(r.cfg, r.fs); err != nil {
			return err
		}
		r.s.SetCompactAfter(-1).SetFlowCompactAfter(-1)
		r.fi, err = r.s.FlowIndex("w")
		return err
	}},
	{"PersistEpoch", nil, func(r *faultRun) error { return r.persist("b", 2) }},
	{"LastEpoch", nil, func(r *faultRun) error {
		for _, name := range []string{"a", "b"} { // one in the WAL, one in base.db
			if _, _, _, err := r.s.LastEpoch(name); err != nil {
				return err
			}
		}
		return nil
	}},
	{"Compact", nil, func(r *faultRun) error { return r.s.Compact() }},
	{"SpillFlows", nil, func(r *faultRun) error { return r.spill(50, 10, 3) }},
	{"LookupFlow", nil, func(r *faultRun) error {
		for _, i := range []uint64{35, 5} { // one in the overlay, one in the index
			if _, _, err := r.fi.LookupFlow(spread(i)); err != nil {
				return err
			}
		}
		return nil
	}},
	{"index compaction", nil, func(r *faultRun) error { return r.fi.Compact() }},
	{"Close", nil, func(r *faultRun) error {
		err := r.s.Close()
		r.s, r.fi = nil, nil
		return err
	}},
}

// faultErr is what a faulted call returns: a full disk for a write, an
// I/O error for anything else.
func faultErr(op string) error {
	if op == "write" {
		return syscall.ENOSPC
	}
	return syscall.EIO
}

// TestEverySeamCallFaultedOnce runs each operation once without faults to
// list the seam calls it makes, then once per call with that call failing
// (Remove is left out: the store removes only a temp file, and ignores
// the answer). Each time the failure must surface from the operation;
// the files must go on answering with what was acknowledged; no later
// call may trust the failure — after a failed fsync or cut of a log, the
// next append to it fails, and anything a later call acknowledges is
// there after a reopen; and a reopen, over the real disk, recovers every
// acknowledged epoch and flow and takes new ones.
func TestEverySeamCallFaultedOnce(t *testing.T) {
	for _, op := range storeOps {
		dry := newFaultRun(t)
		if op.prep != nil {
			op.prep(dry)
		}
		from := len(dry.fs.calls)
		if err := op.run(dry); err != nil {
			t.Fatalf("%s without faults: %v", op.name, err)
		}
		seen := map[[2]string]int{}
		for _, c := range dry.fs.calls[from:] {
			if strings.HasPrefix(c.name, ".tmp-") {
				c.name = ".tmp-*" // a fresh name every run
			}
			nth := seen[[2]string{c.op, c.name}]
			seen[[2]string{c.op, c.name}]++
			if c.op == "remove" {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s_%s#%d", op.name, c.op, c.name, nth+1), func(t *testing.T) {
				r := newFaultRun(t)
				if op.prep != nil {
					op.prep(r)
				}
				want := faultErr(c.op)
				r.fs.arm(fault{op: c.op, name: c.name, skip: nth, n: 1, err: want})
				if err := op.run(r); !errors.Is(err, want) {
					t.Fatalf("%s with %s %s #%d failing = %v, want %v", op.name, c.op, c.name, nth+1, err, want)
				}
				r.fs.disarm()
				r.later(c, want)
				r.reopen()
			})
		}
	}
}

// later reads everything back from the live store, makes one more epoch
// and one more spill, and reads everything back again.
func (r *faultRun) later(c diskCall, want error) {
	r.t.Helper()
	if r.s == nil {
		return // a failed Open or a Close: the reopen checks the files
	}
	if r.fi == nil { // the store opened, its index did not
		var err error
		if r.fi, err = r.s.FlowIndex("w"); err != nil {
			r.t.Fatalf("FlowIndex after a failed one: %v", err)
		}
	}
	r.check("after the fault", r.s, r.fi)
	errEpoch, errSpill := r.persist("a", 3), r.spill(60, 10, 4)
	if c.op == "sync" || c.op == "truncate" {
		if c.name == walName && !errors.Is(errEpoch, want) {
			r.t.Fatalf("an epoch after a failed %s of the WAL = %v, want the sticky %v", c.op, errEpoch, want)
		}
		if c.name == "w.flog" && !errors.Is(errSpill, want) {
			r.t.Fatalf("a spill after a failed %s of the spill log = %v, want the sticky %v", c.op, errSpill, want)
		}
	}
	r.check("after the later calls", r.s, r.fi)
}

// reopen closes the store and opens its directory on the real disk.
func (r *faultRun) reopen() {
	r.t.Helper()
	if r.s != nil {
		r.s.Close()
		r.s, r.fi = nil, nil
	}
	s, err := Open(r.cfg)
	if err != nil {
		r.t.Fatalf("reopen: %v", err)
	}
	s.SetCompactAfter(-1).SetFlowCompactAfter(-1)
	defer s.Close()
	fi, err := s.FlowIndex("w")
	if err != nil {
		r.t.Fatalf("reopen: %v", err)
	}
	r.check("after a reopen", s, fi)
	if err := s.PersistEpoch("a", 10, []byte("a-10")); err != nil {
		r.t.Fatalf("an epoch after the reopen: %v", err)
	}
	if err := fi.SpillFlows(flowBatch(70, 10, 5)); err != nil {
		r.t.Fatalf("a spill after the reopen: %v", err)
	}
}
