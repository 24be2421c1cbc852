package domain

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/leakcheck"
	"repro/internal/linear"
	"repro/internal/mempool"
)

// kvState is the test Stateful: a locked map with hooks to fault the
// checkpoint path itself.
type kvState struct {
	mu sync.Mutex
	m  map[string]int

	panicNext atomic.Bool // panic on the next Checkpoint call
	resets    atomic.Int64
	// captured, when set, is signalled after every completed capture (the
	// seed at Spawn included), and served after every payload the
	// handlers of spawnDurableKV and TestDomainCrashMidCheckpoint store.
	captured chan struct{}
	served   chan struct{}
}

type kvImage struct{ M map[string]int }

func newKVState() *kvState { return &kvState{m: make(map[string]int)} }

func (s *kvState) set(k string, v int) {
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

func (s *kvState) get(k string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *kvState) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *kvState) Checkpoint(e *checkpoint.Engine) (any, error) {
	if s.panicNext.CompareAndSwap(true, false) {
		panic("kvState: injected mid-checkpoint crash")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tok, err := e.Checkpoint(&kvImage{M: s.m})
	if s.captured != nil {
		s.captured <- struct{}{}
	}
	return tok, err
}

func (s *kvState) Restore(token any) error {
	snap, ok := token.(*checkpoint.Snapshot)
	if !ok {
		return fmt.Errorf("kvState: token is %T", token)
	}
	v, err := snap.Materialize()
	if err != nil {
		return err
	}
	img := v.(*kvImage)
	if img.M == nil {
		img.M = make(map[string]int)
	}
	s.mu.Lock()
	s.m = img.M
	s.mu.Unlock()
	return nil
}

func (s *kvState) Reset() {
	s.resets.Add(1)
	s.mu.Lock()
	s.m = make(map[string]int)
	s.mu.Unlock()
}

// ckptPolicy is fastPolicy plus a short checkpoint epoch.
func ckptPolicy(every time.Duration) Policy {
	p := fastPolicy()
	p.CheckpointEvery = every
	return p
}

// spawnKV spawns a domain over kvState whose handler sets key "k<v>"
// for positive payloads and panics for negative ones.
func spawnKV(t *testing.T, s *Supervisor, st *kvState) *Domain[int] {
	t.Helper()
	d, err := Spawn(s, Config[int]{
		Name:  "kv",
		State: st,
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			if v < 0 {
				panic("injected handler crash")
			}
			st.set(fmt.Sprintf("k%d", v), v)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDomainCheckpointRestore: state mutated before a completed
// checkpoint epoch survives a crash — the restart restores the snapshot
// instead of cold-starting.
func TestDomainCheckpointRestore(t *testing.T) {
	p := ckptPolicy(2 * time.Millisecond)
	sup, fc := fakeSupervisor(p)
	defer sup.Close()
	st := newKVState()
	st.captured = make(chan struct{}, 8)
	d := spawnKV(t, sup, st)
	<-st.captured // the seed, at Spawn
	fc.expectArmed(t, fc.now().Add(p.CheckpointEvery))

	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	// An epoch that provably includes k1: the payload was queued before
	// the epoch came due, and a queued payload goes before the epoch.
	fc.step(t, p.CheckpointEvery)
	fc.expectArmed(t, fc.now().Add(p.CheckpointEvery))
	<-st.captured

	if err := d.Inbox().Send(linear.New(-1)); err != nil {
		t.Fatal(err)
	}
	fc.expectArmed(t, fc.now().Add(p.Backoff))
	fc.step(t, p.Backoff)
	fc.armed() // the restart, restoring the epoch
	if v, ok := st.get("k1"); !ok || v != 1 {
		t.Fatalf("k1 not restored: (%d, %v), state size %d", v, ok, st.size())
	}
	sn := d.Snapshot()
	if sn.Restores != 1 || sn.ColdStarts != 0 {
		t.Fatalf("restores = %d, cold starts = %d, want 1 and 0 (a checkpoint epoch had completed)", sn.Restores, sn.ColdStarts)
	}
	if st.resets.Load() != 0 {
		t.Fatalf("Reset ran %d times, want 0", st.resets.Load())
	}

	// The restored domain keeps serving.
	if err := d.Inbox().Send(linear.New(2)); err != nil {
		t.Fatal(err)
	}
	d.Inbox().Close()
	<-d.Done()
	if _, ok := st.get("k2"); !ok {
		t.Fatal("the restored domain did not serve k2")
	}
}

// TestDomainHangBeforeFirstEpochRestoresSeed: a generation abandoned as
// hung before any periodic epoch completes restarts on the epoch Spawn
// seeded: the state comes back as Spawn found it, the data it was built
// with included, and the write the hung invocation made is gone.
func TestDomainHangBeforeFirstEpochRestoresSeed(t *testing.T) {
	p := ckptPolicy(time.Hour) // no periodic epoch will complete
	p.HangAfter = 5 * time.Millisecond
	sup, fc := fakeSupervisor(p)
	defer sup.Close()
	st := newKVState()
	st.set("boot", 7)
	entered, stall := make(chan struct{}), make(chan struct{})
	defer close(stall)
	d, err := Spawn(sup, Config[int]{
		Name:  "kv-seed",
		State: st,
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			st.set(fmt.Sprintf("k%d", v), v)
			entered <- struct{}{}
			<-stall
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fc.expectArmed(t, fc.now().Add(p.hangTick()))
	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	<-entered
	awaitHangVerdict(t, fc, d, p, fc.now())
	fc.next() // the restart, restoring the seed
	if v, ok := st.get("boot"); !ok || v != 7 || st.size() != 1 {
		t.Fatalf("boot = (%d, %v), state size %d: want the state Spawn found, {boot: 7}", v, ok, st.size())
	}
	if sn := d.Snapshot(); sn.Restarts != 1 || sn.Restores != 1 || sn.ColdStarts != 0 || sn.Checkpoints != 0 {
		t.Fatalf("snapshot %+v: want 1 restart restoring the seed, 0 cold starts, 0 taken checkpoints", sn)
	}
}

// TestDomainCheckpointOffIgnoresState: with CheckpointEvery zero the
// State field is inert — no epochs, no reset, state rides through the
// restart unmanaged (the pre-§5 behavior).
func TestDomainCheckpointOffIgnoresState(t *testing.T) {
	p := fastPolicy()
	sup, fc := fakeSupervisor(p)
	defer sup.Close()
	st := newKVState()
	d := spawnKV(t, sup, st)
	fc.expectArmed(t, time.Time{}) // no epochs to schedule

	for _, v := range []int{1, -1} {
		if err := d.Inbox().Send(linear.New(v)); err != nil {
			t.Fatal(err)
		}
	}
	fc.expectArmed(t, fc.now().Add(p.Backoff))
	fc.step(t, p.Backoff)
	fc.expectArmed(t, time.Time{})
	if n := d.Snapshot().Restarts; n != 1 {
		t.Fatalf("%d restarts, want 1", n)
	}
	if v, ok := st.get("k1"); !ok || v != 1 {
		t.Fatalf("unmanaged state lost across restart: (%d, %v)", v, ok)
	}
	sn := d.Snapshot()
	if sn.Checkpoints != 0 || sn.Restores != 0 || sn.ColdStarts != 0 || st.resets.Load() != 0 {
		t.Fatalf("checkpoint machinery ran with CheckpointEvery=0: %+v", sn)
	}
}

// TestDomainCrashMidCheckpoint: a panic inside the checkpoint traversal
// is a domain fault; the half-built snapshot is discarded unpublished
// (the previous good epoch still restores), and no payload leaks — the
// pool balances at test end.
func TestDomainCrashMidCheckpoint(t *testing.T) {
	pool := mempool.NewPool[int](16, nil)
	leakcheck.Pool(t, "payloads", pool.Available)

	p := ckptPolicy(2 * time.Millisecond)
	sup, fc := fakeSupervisor(p)
	defer sup.Close()
	st := newKVState()
	st.captured = make(chan struct{}, 8)
	st.served = make(chan struct{}, 8)
	d, err := Spawn(sup, Config[*int]{
		Name:    "kv-mid",
		State:   st,
		Release: func(p *int) { pool.Put(p) },
		Handler: func(msg linear.Owned[*int]) error {
			p, err := msg.Into()
			if err != nil {
				return err
			}
			st.set(fmt.Sprintf("k%d", *p), *p)
			pool.Put(p)
			st.served <- struct{}{}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-st.captured // the seed, at Spawn
	send := func(v int) {
		buf, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		*buf = v
		if err := d.Inbox().Send(linear.New(buf)); err != nil {
			t.Fatal(err)
		}
	}
	fc.expectArmed(t, fc.now().Add(p.CheckpointEvery))

	send(1)
	<-st.served
	fc.step(t, p.CheckpointEvery)
	fc.expectArmed(t, fc.now().Add(p.CheckpointEvery))
	<-st.captured // a good checkpoint with k1

	// Arm the fault, then mutate: k2 lands in live state only — the next
	// checkpoint attempt (which would have captured it) dies mid-flight.
	// The serving goroutine finished counting the good epoch before it
	// took k2, so taken is read after k2 is served.
	st.panicNext.Store(true)
	send(2)
	<-st.served
	taken := d.Snapshot().Checkpoints
	fc.step(t, p.CheckpointEvery)
	// Two wakes: the epoch's, which reaches the idle domain, then the
	// fault's, which arms the restart.
	fc.expectArmed(t, fc.now().Add(p.CheckpointEvery))
	fc.expectArmed(t, fc.now().Add(p.Backoff))
	fc.step(t, p.Backoff)
	fc.armed() // the restart, restoring the good epoch
	if sn := d.Snapshot(); sn.CheckpointFailures != 1 || sn.Restores != 1 {
		t.Fatalf("snapshot %+v: want 1 checkpoint failure and 1 restore", sn)
	}
	if v, ok := st.get("k1"); !ok || v != 1 {
		t.Fatalf("k1 lost: the previous good epoch should restore (got %d, %v)", v, ok)
	}
	if _, ok := st.get("k2"); ok {
		t.Fatal("k2 present after restore: the half-built snapshot was published")
	}
	// The failed attempt must not count as a taken epoch.
	if sn := d.Snapshot(); sn.Checkpoints != taken {
		t.Fatalf("taken count moved from %d to %d on a failed attempt", taken, sn.Checkpoints)
	}
	if sn := d.Snapshot(); sn.Crashes != 1 {
		t.Fatalf("checkpoint panic not counted as a crash: %+v", sn)
	}

	// The restored domain serves on; drain cleanly so leakcheck settles.
	send(3)
	<-st.served
	d.Inbox().Close()
	<-d.Done()
	if _, ok := st.get("k3"); !ok {
		t.Fatal("the restored domain did not serve k3")
	}
}

// TestStateSet: composition distributes checkpoint/restore/reset across
// named components and labels errors with the component name.
func TestStateSet(t *testing.T) {
	a, b := newDurableKV(), newDurableKV()
	set := NewStateSet().Add("alpha", a).Add("beta", b)
	if len(set.parts) != 2 {
		t.Fatalf("Len = %d", len(set.parts))
	}
	a.set("x", 1)
	b.set("y", 2)
	e := checkpoint.NewEngine(checkpoint.RcAware)
	tok, err := set.Checkpoint(e)
	if err != nil {
		t.Fatal(err)
	}
	a.set("x", 99)
	b.set("z", 3)
	if err := set.Restore(tok); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.get("x"); v != 1 {
		t.Fatalf("alpha x = %d, want 1", v)
	}
	if _, ok := b.get("z"); ok {
		t.Fatal("beta z survived restore")
	}
	if v, _ := b.get("y"); v != 2 {
		t.Fatalf("beta y = %d, want 2", v)
	}

	if err := set.Restore("bogus"); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("bad token error = %v", err)
	}
	if err := set.Restore([]any{tok}); err == nil {
		t.Fatal("token of the old positional shape accepted")
	}
	if err := set.Restore(&setToken{wire: tok.(*setToken).wire[:5]}); err == nil {
		t.Fatal("short token accepted")
	}
	// A component failure names the component: two parts, the first one
	// byte of junk.
	junk := &setToken{wire: []byte{2, 0, 0, 0, 1, 0, 0, 0, 0xff, 0, 0, 0, 0}}
	if err := set.Restore(junk); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("component error = %v, want alpha named", err)
	}

	set.Reset()
	if a.size() != 0 || b.size() != 0 {
		t.Fatal("Reset did not clear both components")
	}
	if a.resets.Load() != 1 || b.resets.Load() != 1 {
		t.Fatal("Reset did not reach both components")
	}
}
