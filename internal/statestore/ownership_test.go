package statestore

// ownership_test.go holds the buffer path's epochs to their one rule: a
// captured buffer is never written again, and the store borrows it for
// one PersistEpoch call and keeps nothing of it. It runs the real domain
// runtime over a real StateSet behind a wrapper that does not stream and
// a real Store (with the disk seam failing writes and fsyncs on cue),
// scripted one epoch at a time, and checks that no capture writes into a
// buffer still reachable and that no reader — a restore, LastEpoch, a
// compaction — ever sees bytes that differ from what some capture
// produced (for the store: what it was handed under that seq).

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
)

// TestSpillSteadyStateAllocatesNothing: with its payload and frame
// scratch warm, a spill batch that triggers no compaction allocates
// nothing (it was a payload and a frame, about 42 KiB per 512 flows).
func TestSpillSteadyStateAllocatesNothing(t *testing.T) {
	s := openT(t, t.TempDir(), Config{Fsync: FsyncNone}).SetFlowCompactAfter(-1)
	fi, err := s.FlowIndex("worker-0")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]session.SpillRecord, 512)
	next := uint64(0)
	spill := func() {
		for i := range batch {
			batch[i] = rec(next%4096, 0x0a000001, next) // 4096 hashes: the overlay stops growing
			next++
		}
		if err := fi.SpillFlows(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		spill()
	}
	if allocs := testing.AllocsPerRun(50, spill); allocs != 0 {
		t.Fatalf("a steady-state spill batch allocates %.1f objects, want 0", allocs)
	}
}

// --- the ownership script -------------------------------------------------

// ownBook is what the script knows about every epoch buffer: the
// checksums captures produced, per domain; the checksum of each epoch as
// it was handed to the store, per sequence number; and which buffers are
// still reachable (a finalizer crosses them off).
type ownBook struct {
	mu       sync.Mutex
	sums     map[string]map[uint32]bool
	bySeq    map[string]map[uint64]uint32
	tracked  map[uintptr]bool
	problems []string
}

func newOwnBook() *ownBook {
	return &ownBook{sums: map[string]map[uint32]bool{}, bySeq: map[string]map[uint64]uint32{}, tracked: map[uintptr]bool{}}
}

func (b *ownBook) problem(format string, args ...any) {
	b.mu.Lock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *ownBook) known(name string, data []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sums[name][crc32.Checksum(data, castagnoli)]
}

// persisted reports whether data is what the store was handed as epoch
// seq of name: stricter than known, it also catches a retained buffer
// rewritten whole by a later capture.
func (b *ownBook) persisted(name string, seq uint64, data []byte) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum, ok := b.bySeq[name][seq]
	return ok && sum == crc32.Checksum(data, castagnoli)
}

// capture records a capture's checksum and starts tracking its buffer,
// which must be a new one: the buffer of an earlier capture is never
// freed before its finalizer crossed it off.
func (b *ownBook) capture(name string, data []byte) {
	p := &data[:1][0]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sums[name] == nil {
		b.sums[name] = map[uint32]bool{}
	}
	b.sums[name][crc32.Checksum(data, castagnoli)] = true
	key := uintptr(unsafe.Pointer(p))
	if b.tracked[key] {
		b.problems = append(b.problems, fmt.Sprintf("%s: a capture wrote into a buffer an earlier capture still holds", name))
		return
	}
	b.tracked[key] = true
	runtime.SetFinalizer(p, func(p *byte) {
		b.mu.Lock()
		delete(b.tracked, uintptr(unsafe.Pointer(p)))
		b.mu.Unlock()
	})
}

func (b *ownBook) reachable() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.tracked)
}

// ownedStore notes each epoch's checksum on its way into the store.
type ownedStore struct {
	*Store
	book *ownBook
}

func (o *ownedStore) PersistEpoch(name string, seq uint64, payload []byte) error {
	o.book.mu.Lock()
	if o.book.bySeq[name] == nil {
		o.book.bySeq[name] = map[uint64]uint32{}
	}
	o.book.bySeq[name][seq] = crc32.Checksum(payload, castagnoli)
	o.book.mu.Unlock()
	return o.Store.PersistEpoch(name, seq, payload)
}

// ownedState stands between the runtime and a worker's StateSet, whose
// streaming capture it hides: every epoch takes the buffer path, and the
// book sees every capture. A capture waits for a permit from the script,
// which is how the script knows when nothing is in flight.
type ownedState struct {
	name    string
	inner   *domain.StateSet
	book    *ownBook
	permits chan struct{}
	waiting atomic.Int32
	panicIn atomic.Bool // panic in the next capture, after the bytes are written
}

func (o *ownedState) Checkpoint(e *checkpoint.Engine) (any, error) {
	o.waiting.Add(1)
	_, open := <-o.permits
	o.waiting.Add(-1)
	if !open {
		return nil, errors.New("ownedState: script over")
	}
	tok, err := o.inner.Checkpoint(e)
	if err != nil {
		return nil, err
	}
	data, _ := o.inner.EncodeToken(tok)
	o.book.capture(o.name, data)
	if o.panicIn.CompareAndSwap(true, false) {
		panic("ownedState: injected mid-capture crash")
	}
	return tok, nil
}

func (o *ownedState) Restore(token any) error {
	data, err := o.inner.EncodeToken(token)
	if err != nil {
		return err
	}
	if !o.book.known(o.name, data) {
		o.book.problem("%s: restore reads %d bytes no capture produced", o.name, len(data))
	}
	return o.inner.Restore(token)
}

func (o *ownedState) EncodeToken(token any) ([]byte, error) { return o.inner.EncodeToken(token) }
func (o *ownedState) DecodeToken(data []byte) (any, error)  { return o.inner.DecodeToken(data) }

// ownWorker is one supervised domain of the script.
type ownWorker struct {
	state *ownedState
	lb    *maglev.Balancer
	tbl   *session.Table
	dom   *domain.Domain[func()]
	flows int
}

// ownScript is one run: two workers under one supervisor and one store.
type ownScript struct {
	t       *testing.T
	dir     string
	store   *Store
	fs      *faultFS
	book    *ownBook
	sup     *domain.Supervisor
	workers []*ownWorker
}

func newOwnScript(t *testing.T) *ownScript {
	t.Helper()
	sc := &ownScript{t: t, dir: t.TempDir(), fs: &faultFS{}}
	sc.store = openFaultT(t, sc.dir, Config{Fsync: FsyncGroup}, sc.fs).SetCompactAfter(-1)
	sc.book = newOwnBook()
	sc.sup = domain.NewSupervisor(domain.Policy{
		Backoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond, MaxRestarts: -1,
		CheckpointEvery: 100 * time.Microsecond, Persist: &ownedStore{Store: sc.store, book: sc.book},
	}, sim.Wall{})
	for w := 0; w < 2; w++ {
		lb, err := maglev.NewBalancer([]maglev.Backend{
			{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
			{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
			{Name: "be-2", IP: packet.Addr(10, 1, 0, 3)},
		}, 251)
		if err != nil {
			t.Fatal(err)
		}
		wk := &ownWorker{lb: lb, tbl: session.NewTable()}
		wk.state = &ownedState{
			name:    fmt.Sprintf("worker-%d", w),
			inner:   domain.NewStateSet().Add("maglev", lb).Add("session", wk.tbl),
			book:    sc.book,
			permits: make(chan struct{}, 16), // the script grants at most a few ahead
		}
		wk.state.permits <- struct{}{} // the seed, Spawn's capture
		wk.dom, err = domain.Spawn(sc.sup, domain.Config[func()]{
			Name:  wk.state.name,
			State: wk.state,
			Handler: func(msg linear.Owned[func()]) error {
				fn, err := msg.Into()
				if err != nil {
					return err
				}
				fn()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sc.workers = append(sc.workers, wk)
	}
	t.Cleanup(func() {
		sc.sup.Close()
		for _, wk := range sc.workers {
			close(wk.state.permits) // parked captures return an error and their generations exit
		}
	})
	sc.settle()
	for w := range sc.workers {
		sc.epoch(w, true) // from here on every fault has an epoch to restore
	}
	return sc
}

func (sc *ownScript) wait(what string, cond func() bool) {
	sc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			sc.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// attempts counts a worker's finished epoch attempts of every outcome.
func attempts(wk *ownWorker) uint64 {
	sn := wk.dom.Snapshot()
	return sn.Checkpoints + sn.CheckpointFailures
}

// settle waits until every worker's only runnable work is a capture
// parked on its permit: publish and persist both run on the
// goroutine that captured, before it can ask for the next permit, so
// nothing touches an epoch buffer while this holds.
func (sc *ownScript) settle() {
	sc.t.Helper()
	for _, wk := range sc.workers {
		wk := wk
		sc.wait(wk.state.name+" parked at its permit", func() bool {
			return wk.dom.State() == domain.StateLive && wk.state.waiting.Load() == 1
		})
	}
}

// epoch lets worker w take one epoch and waits for it to finish. The
// handler first tracks three flows, new ones when grow is set and the
// first three again otherwise, so that no two epochs are the same bytes
// (the packet counters move either way).
func (sc *ownScript) epoch(w int, grow bool) {
	sc.t.Helper()
	wk := sc.workers[w]
	from := 0
	if grow {
		from = wk.flows
		wk.flows += 3
	}
	track := func() {
		for i := from; i < from+3; i++ {
			tu := packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: packet.Addr(10, 99, 0, 1), SrcPort: uint16(1024 + i), DstPort: 80, Proto: 17}
			wk.tbl.Track(tu, wk.lb.Pick(tu).IP, 64)
		}
	}
	before := attempts(wk)
	if err := wk.dom.Inbox().Send(linear.New(track)); err != nil {
		sc.t.Fatal(err)
	}
	wk.state.permits <- struct{}{}
	sc.wait("one epoch of "+wk.state.name, func() bool { return attempts(wk) > before })
	sc.settle()
}

// crash faults worker w — in its handler, or inside its next capture —
// and waits for its restart.
func (sc *ownScript) crash(w int, inCapture bool) {
	sc.t.Helper()
	wk := sc.workers[w]
	restarts := wk.dom.Snapshot().Restarts
	if inCapture {
		wk.state.panicIn.Store(true)
	} else if err := wk.dom.Inbox().Send(linear.New(func() { panic("ownScript: injected handler crash") })); err != nil {
		sc.t.Fatal(err)
	}
	wk.state.permits <- struct{}{} // the parked capture runs; a handler crash follows it
	sc.wait(wk.state.name+" restarted", func() bool { return wk.dom.Snapshot().Restarts > restarts })
	sc.settle()
}

// verify runs with everything parked: every epoch LastEpoch reads back
// and every frame of a compacted base must be the bytes the store was
// handed under that seq, and no more than one epoch buffer per worker
// (the last good epoch, after a failed persist) may still be reachable.
func (sc *ownScript) verify(compact bool) {
	sc.t.Helper()
	if compact {
		if err := sc.store.Compact(); err != nil {
			sc.t.Fatalf("compact: %v", err)
		}
		f, err := os.Open(filepath.Join(sc.dir, baseName))
		if err != nil {
			sc.t.Fatal(err)
		}
		st, _ := f.Stat()
		_, err = scanFrames(f, st.Size(), func(_ int64, rec []byte) {
			name, seq, _, token, derr := decodeEpoch(rec)
			if derr != nil || !sc.book.persisted(name, seq, token) {
				sc.book.problem("base.db holds as epoch %d of %q bytes the store was never handed (decode: %v)", seq, name, derr)
			}
		})
		f.Close()
		if err != nil {
			sc.t.Fatal(err)
		}
	}
	for _, wk := range sc.workers {
		data, seq, ok, err := sc.store.LastEpoch(wk.state.name)
		if err != nil {
			sc.t.Fatal(err)
		}
		if ok && !sc.book.persisted(wk.state.name, seq, data) {
			sc.book.problem("%s: LastEpoch returns as epoch %d bytes the store was never handed", wk.state.name, seq)
		}
	}
	limit := len(sc.workers)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if sc.book.reachable() <= limit {
			break
		}
		if time.Now().After(deadline) {
			sc.t.Fatalf("%d epoch buffers still reachable with everything parked, want <= %d (one per worker)", sc.book.reachable(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	sc.book.mu.Lock()
	defer sc.book.mu.Unlock()
	if len(sc.book.problems) > 0 {
		sc.t.Fatalf("ownership violated:\n%v", sc.book.problems)
	}
}

// Opcodes of the script; the worker is the byte's next bit up.
const (
	opEpoch = iota
	opPersistError
	opFsyncError
	opCrash
	opCrashInCapture
	opCompact
	opVerify
	ownOps
)

// run plays ops and verifies once more at the end.
func (sc *ownScript) run(ops []byte) {
	sc.t.Helper()
	for _, b := range ops {
		w := int(b/ownOps) % len(sc.workers)
		switch b % ownOps {
		case opEpoch:
			sc.epoch(w, b&0x80 == 0)
		case opPersistError:
			sc.fs.arm(fault{op: "write", name: walName, n: 1})
			sc.epoch(w, true)
			sc.fs.disarm()
		case opFsyncError:
			sc.fs.arm(fault{op: "sync", name: walName, n: 1})
			sc.epoch(w, true)
			sc.fs.disarm()
		case opCrash:
			sc.crash(w, false)
		case opCrashInCapture:
			sc.crash(w, true)
		case opCompact:
			sc.verify(true)
		case opVerify:
			sc.verify(false)
		}
	}
	sc.verify(true)
	for _, wk := range sc.workers {
		if sn := wk.dom.Snapshot(); sn.ColdStarts != 0 {
			sc.t.Fatalf("%s cold-started %d times; every fault had a published epoch to restore", wk.state.name, sn.ColdStarts)
		}
	}
}

// TestEpochOwnershipProperty plays seeded random scripts.
func TestEpochOwnershipProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 60)
			for i := range ops {
				ops[i] = byte(rng.Intn(2 * ownOps))
				if rng.Intn(3) == 0 { // weight plain epochs: faults need epochs around them
					ops[i] = byte(opEpoch + ownOps*rng.Intn(2))
				}
			}
			newOwnScript(t).run(ops)
		})
	}
}

// FuzzEpochOwnership plays arbitrary scripts. The seeds are the orders
// around a failed persist: a persist that fails and then succeeds (the
// failed epoch stays in RAM as the last good one until a newer one
// replaces it), an fsync that fails after the append, and a crash right
// after each.
func FuzzEpochOwnership(f *testing.F) {
	f.Add([]byte{opEpoch, opEpoch, opPersistError, opEpoch, opEpoch, opVerify})
	f.Add([]byte{opEpoch, opEpoch, opFsyncError, opEpoch, opEpoch, opCompact})
	f.Add([]byte{opEpoch, opPersistError, opCrash, opEpoch, opFsyncError, opCrashInCapture, opEpoch})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		newOwnScript(t).run(ops)
	})
}
