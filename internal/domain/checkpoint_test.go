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
	return e.Checkpoint(&kvImage{M: s.m})
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
		Handler: func(c *Ctx, msg linear.Owned[int]) error {
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
	sup := NewSupervisor(ckptPolicy(2 * time.Millisecond))
	defer sup.Close()
	st := newKVState()
	d := spawnKV(t, sup, st)

	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first payload", func() bool { return d.Snapshot().Processed == 1 })
	// Wait for an epoch that provably includes k1.
	c0 := d.Snapshot().Checkpoints
	waitFor(t, "post-mutation checkpoint", func() bool { return d.Snapshot().Checkpoints > c0 })

	if err := d.Inbox().Send(linear.New(-1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restore after crash", func() bool { return d.Snapshot().Restores >= 1 })
	if v, ok := st.get("k1"); !ok || v != 1 {
		t.Fatalf("k1 not restored: (%d, %v), state size %d", v, ok, st.size())
	}
	sn := d.Snapshot()
	if sn.ColdStarts != 0 {
		t.Fatalf("cold starts = %d, want 0 (a checkpoint epoch had completed)", sn.ColdStarts)
	}
	if st.resets.Load() != 0 {
		t.Fatalf("Reset ran %d times, want 0", st.resets.Load())
	}

	// The restored domain keeps serving and checkpointing.
	if err := d.Inbox().Send(linear.New(2)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restore payload", func() bool {
		_, ok := st.get("k2")
		return ok
	})
}

// TestDomainColdStartWithoutEpoch: a crash before any checkpoint epoch
// completes falls back to Reset — cold start only at boot.
func TestDomainColdStartWithoutEpoch(t *testing.T) {
	sup := NewSupervisor(ckptPolicy(time.Hour)) // no epoch will complete
	defer sup.Close()
	st := newKVState()
	d := spawnKV(t, sup, st)

	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first payload", func() bool { return d.Snapshot().Processed == 1 })
	if err := d.Inbox().Send(linear.New(-1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cold start", func() bool { return d.Snapshot().ColdStarts == 1 })
	if st.size() != 0 {
		t.Fatalf("state size %d after cold start, want 0", st.size())
	}
	if sn := d.Snapshot(); sn.Restores != 0 || sn.Checkpoints != 0 {
		t.Fatalf("snapshot %+v: want no restores or checkpoints", sn)
	}
}

// TestDomainCheckpointOffIgnoresState: with CheckpointEvery zero the
// State field is inert — no epochs, no reset, state rides through the
// restart unmanaged (the pre-§5 behavior).
func TestDomainCheckpointOffIgnoresState(t *testing.T) {
	sup := NewSupervisor(fastPolicy())
	defer sup.Close()
	st := newKVState()
	d := spawnKV(t, sup, st)

	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first payload", func() bool { return d.Snapshot().Processed == 1 })
	if err := d.Inbox().Send(linear.New(-1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restart", func() bool { return d.Snapshot().Restarts == 1 })
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

	sup := NewSupervisor(ckptPolicy(2 * time.Millisecond))
	defer sup.Close()
	st := newKVState()
	d, err := Spawn(sup, Config[*int]{
		Name:    "kv-mid",
		State:   st,
		Release: func(p *int) { pool.Put(p) },
		Handler: func(c *Ctx, msg linear.Owned[*int]) error {
			p, err := msg.Into()
			if err != nil {
				return err
			}
			st.set(fmt.Sprintf("k%d", *p), *p)
			pool.Put(p)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
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

	send(1)
	waitFor(t, "first payload", func() bool { return d.Snapshot().Processed == 1 })
	c0 := d.Snapshot().Checkpoints
	waitFor(t, "good checkpoint with k1", func() bool { return d.Snapshot().Checkpoints > c0 })

	// Arm the fault, then mutate: k2 lands in live state only — the next
	// checkpoint attempt (which would have captured it) dies mid-flight.
	st.panicNext.Store(true)
	taken := d.Snapshot().Checkpoints
	send(2)
	waitFor(t, "mid-checkpoint fault + restore", func() bool {
		sn := d.Snapshot()
		return sn.CheckpointFailures >= 1 && sn.Restores >= 1
	})
	if v, ok := st.get("k1"); !ok || v != 1 {
		t.Fatalf("k1 lost: the previous good epoch should restore (got %d, %v)", v, ok)
	}
	if _, ok := st.get("k2"); ok {
		t.Fatal("k2 present after restore: the half-built snapshot was published")
	}
	// The failed attempt must not count as a taken epoch. (New epochs may
	// complete after the restart, but only after the restore that dropped
	// k2 — so k2's absence above already proves the discard; here we pin
	// the counter semantics.)
	if sn := d.Snapshot(); sn.Checkpoints < taken {
		t.Fatalf("taken count went backwards: %d -> %d", taken, sn.Checkpoints)
	}
	if sn := d.Snapshot(); sn.Crashes < 1 {
		t.Fatalf("checkpoint panic not counted as a crash: %+v", sn)
	}

	// The restored domain serves on; drain cleanly so leakcheck settles.
	send(3)
	waitFor(t, "post-restore payload", func() bool {
		_, ok := st.get("k3")
		return ok
	})
	d.Inbox().Close()
	<-d.Done()
}

// TestStateSet: composition distributes checkpoint/restore/reset across
// named components and labels errors with the component name.
func TestStateSet(t *testing.T) {
	a, b := newDurableKV(), newDurableKV()
	set := NewStateSet().Add("alpha", a).Add("beta", b)
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
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
