package domain

// recycle_test.go covers who owns an epoch buffer: the StateSet's single
// spare, the runtime's rule for handing a token back (only what it can
// prove nobody else reads: a replaced epoch, or one the store now holds),
// the publish that a superseded generation must not make, and the
// ordering the rule leans on — no publish and no hand-back while a
// restore is reading the last epoch.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/linear"
)

// bufOf is the address of the memory a StateSet token occupies.
func bufOf(t testing.TB, token any) *byte {
	t.Helper()
	tok, ok := token.(*setToken)
	if !ok || cap(tok.wire) == 0 {
		t.Fatalf("not a state-set token with a buffer: %T", token)
	}
	return &tok.wire[:1][0]
}

// TestStateSetKeepsOneSpare: a token handed back is the next capture's
// buffer, a caller that hands nothing back gets a fresh buffer with an
// eighth of headroom every time, a second hand-back does not grow the
// stock, a spare the state has outgrown is replaced with headroom, and a
// failed capture keeps its spare.
func TestStateSetKeepsOneSpare(t *testing.T) {
	kv := newDurableKV()
	kv.set("a", 1)
	set := NewStateSet().Add("kv", kv)
	checkpointT := func() any {
		t.Helper()
		tok, err := set.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}

	a, b := checkpointT(), checkpointT()
	if bufOf(t, a) == bufOf(t, b) {
		t.Fatal("two captures with no hand-back between them share a buffer")
	}
	if w := a.(*setToken).wire; cap(w) != len(w)+len(w)/8 {
		t.Fatalf("fresh buffer of %d B has %d B of headroom, want an eighth", len(w), cap(w)-len(w))
	}
	pristine := bytes.Clone(b.(*setToken).wire)

	set.RecycleToken(a)
	set.RecycleToken(b) // same capacity: the stock stays at one, a
	if set.spare != a {
		t.Fatal("a second hand-back replaced a spare of equal capacity")
	}
	c := checkpointT()
	if c != a {
		t.Fatal("the capture after a hand-back did not reuse the spare")
	}
	if set.spare != nil {
		t.Fatal("a taken spare is still in stock")
	}
	if !bytes.Equal(b.(*setToken).wire, pristine) {
		t.Fatal("a token that was not in stock was written to")
	}
	if d := checkpointT(); d == a || d == b {
		t.Fatal("a capture with no spare in stock reused a published token")
	}

	// Outgrown spare: replaced, with headroom for the next few epochs.
	set.RecycleToken(c)
	for i := 0; i < 64; i++ {
		kv.set(string(rune('b'+i)), i)
	}
	grown := checkpointT().(*setToken)
	if grown != c {
		t.Fatal("the token object is not reused when only its buffer is outgrown")
	}
	if cap(grown.wire) <= len(grown.wire) {
		t.Fatalf("buffer regrown under recycling has no headroom (%d/%d)", len(grown.wire), cap(grown.wire))
	}
	set.RecycleToken(grown)
	kv.set("one-more", 1)
	if again := checkpointT().(*setToken); &again.wire[0] != &grown.wire[:1][0] {
		t.Fatal("one more key outgrew a buffer that was sized with headroom")
	}

	// A capture that fails gives its spare back rather than dropping it.
	failing := NewStateSet().Add("kv", kv).Add("bad", &failingWire{durableKV: newDurableKV()})
	failing.RecycleToken(&setToken{wire: make([]byte, 0, 4096)})
	spare := failing.spare
	if _, err := failing.Checkpoint(nil); err == nil {
		t.Fatal("capture over a failing component succeeded")
	}
	if failing.spare != spare {
		t.Fatal("a failed capture lost the spare it had taken")
	}
	set.RecycleToken("not a token") // ignored, not a panic
}

// failingWire is a wire-form component whose capture always fails.
type failingWire struct{ *durableKV }

func (f *failingWire) AppendCheckpoint([]byte) ([]byte, error) {
	return nil, errors.New("failingWire: injected capture error")
}

// gatedSet is a StateSet whose captures wait for the test: one permit,
// one capture. It forwards RecycleToken (so the runtime still finds it)
// and records every hand-back; hold makes the next capture wait a second
// time after the bytes are written, which is where a generation can be
// superseded mid-capture.
type gatedSet struct {
	*StateSet
	permits chan struct{}
	waiting atomic.Int32 // captures parked on permits
	hold    atomic.Bool
	held    chan struct{} // signalled when a capture is holding
	release chan struct{}

	mu       sync.Mutex
	captured []*byte
	recycled []*byte
	lastWire []byte // a copy of the newest capture's bytes
}

func newGatedSet(parts ...*durableKV) *gatedSet {
	g := &gatedSet{
		StateSet: NewStateSet(),
		permits:  make(chan struct{}, 64), // the test grants ahead; never more than a few
		held:     make(chan struct{}, 1),
		release:  make(chan struct{}),
	}
	for i, p := range parts {
		g.Add(string(rune('a'+i)), p)
	}
	return g
}

func (g *gatedSet) Checkpoint(e *checkpoint.Engine) (any, error) {
	g.waiting.Add(1)
	_, open := <-g.permits
	g.waiting.Add(-1)
	if !open {
		return nil, errors.New("gatedSet: test over")
	}
	tok, err := g.StateSet.Checkpoint(e)
	if err == nil {
		g.mu.Lock()
		g.captured = append(g.captured, &tok.(*setToken).wire[:1][0])
		g.lastWire = bytes.Clone(tok.(*setToken).wire)
		g.mu.Unlock()
	}
	if g.hold.CompareAndSwap(true, false) {
		g.held <- struct{}{}
		<-g.release
	}
	return tok, err
}

func (g *gatedSet) RecycleToken(token any) {
	g.mu.Lock()
	g.recycled = append(g.recycled, &token.(*setToken).wire[:1][0])
	g.mu.Unlock()
	g.StateSet.RecycleToken(token)
}

func (g *gatedSet) counts() (captured, recycled int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.captured), len(g.recycled)
}

func (g *gatedSet) lastCaptured() *byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.captured[len(g.captured)-1]
}

func (g *gatedSet) lastRecycled() *byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.recycled) == 0 {
		return nil
	}
	return g.recycled[len(g.recycled)-1]
}

// copyPersister is a store in miniature that keeps the bytes, not the
// slice: it copies each payload, as a store writing it to a file does,
// hands out copies, and refuses an epoch no newer than the one it holds.
// failBefore refuses the next epoch before recording it; failAfter
// records it and then fails, as an fsync after the append does; hold
// makes the next call signal entered and wait for release while it
// still has the payload.
type copyPersister struct {
	*memPersister
	failBefore, failAfter, hold bool // guarded by memPersister.mu
	entered, release            chan struct{}
}

func (p *copyPersister) PersistEpoch(name string, seq uint64, payload []byte) error {
	p.mu.Lock()
	before, after, hold := p.failBefore, p.failAfter, p.hold
	p.failBefore, p.failAfter, p.hold = false, false, false
	p.mu.Unlock()
	if hold {
		p.entered <- struct{}{}
		<-p.release
	}
	if newest := p.lastSeq(name); seq <= newest {
		return fmt.Errorf("copyPersister: epoch %d is not newer than %d", seq, newest)
	}
	if before {
		return errors.New("copyPersister: refused before recording")
	}
	if err := p.memPersister.PersistEpoch(name, seq, payload); err != nil {
		return err
	}
	if after {
		return errors.New("copyPersister: failed after recording")
	}
	return nil
}

func (p *copyPersister) arm(before, after bool) {
	p.mu.Lock()
	p.failBefore, p.failAfter = before, after
	p.mu.Unlock()
}

// wrappedPersister forwards the Persister methods and nothing else, the
// way a timing decorator would.
type wrappedPersister struct{ inner Persister }

func (p wrappedPersister) PersistEpoch(name string, seq uint64, payload []byte) error {
	return p.inner.PersistEpoch(name, seq, payload)
}

func (p wrappedPersister) LastEpoch(name string) ([]byte, uint64, bool, error) {
	return p.inner.LastEpoch(name)
}

// spawnGated spawns a domain over g whose handler sets one key per
// payload; -1 also sets "torn" before it panics, any other negative
// payload just panics.
func spawnGated(t *testing.T, s *Supervisor, name string, g *gatedSet, kv *durableKV) *Domain[int] {
	t.Helper()
	g.permits <- struct{}{} // the seed, Spawn's capture
	d, err := Spawn(s, Config[int]{
		Name:  name,
		State: g,
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			if v == -1 {
				kv.set("torn", 1)
			}
			if v < 0 {
				panic("injected handler crash")
			}
			kv.set(string(rune('a'+v%26)), v)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(g.permits) }) // after sup.Close (LIFO): lets parked captures end
	return d
}

// epoch grants one capture and waits until the serving goroutine has
// finished with it — publish, persist and hand-back all happen on that
// goroutine before it can park on the next permit. (One generation at a
// time: a test that restarts the domain waits for the old one itself.)
func epoch(t *testing.T, d *Domain[int], g *gatedSet) {
	t.Helper()
	sn := d.Snapshot()
	before := sn.Checkpoints + sn.CheckpointFailures
	g.permits <- struct{}{}
	waitFor(t, "one epoch", func() bool {
		sn := d.Snapshot()
		return sn.Checkpoints+sn.CheckpointFailures > before && g.waiting.Load() == 1
	})
}

// reachable counts the distinct epoch buffers the runtime and the state
// hold between epochs (a durable reference holds none).
func reachable(t *testing.T, d *Domain[int], g *gatedSet) int {
	t.Helper()
	seen := map[*byte]bool{}
	if last := d.ck.last.Load(); last != nil && last.token != nil {
		seen[bufOf(t, last.token)] = true
	}
	g.StateSet.mu.Lock()
	if g.spare != nil {
		seen[bufOf(t, g.spare)] = true
	}
	g.StateSet.mu.Unlock()
	return len(seen)
}

// TestRuntimeHandsBackOnlyWhatItOwns drives real epochs with and without
// a store and checks, between epochs, the ownership facts: at most two
// buffers are reachable (one, once a store holds the epoch), a hand-back
// happens exactly when nobody else can read the buffer, and the store's
// newest epoch is the bytes that were captured whatever was recycled
// since.
func TestRuntimeHandsBackOnlyWhatItOwns(t *testing.T) {
	t.Run("no store", func(t *testing.T) {
		sup := NewSupervisor(ckptPolicy(200 * time.Microsecond))
		defer sup.Close()
		kv := newDurableKV()
		g := newGatedSet(kv)
		d := spawnGated(t, sup, "w", g, kv)
		epoch(t, d, g)
		first := g.lastCaptured()
		epoch(t, d, g)
		if g.lastRecycled() != first {
			t.Fatal("the epoch a newer one replaced was not handed back")
		}
		epoch(t, d, g)
		if g.lastCaptured() != first {
			t.Fatal("the third capture did not write into the buffer handed back by the second")
		}
		for i := 0; i < 20; i++ {
			epoch(t, d, g)
			if n := reachable(t, d, g); n > 2 {
				t.Fatalf("%d epoch buffers reachable, want <= 2", n)
			}
		}
		if captured, recycled := g.counts(); recycled != captured-1 {
			t.Fatalf("%d captures, %d hand-backs; every epoch but the newest should be back", captured, recycled)
		}
	})

	t.Run("store", func(t *testing.T) {
		p := &copyPersister{memPersister: newMemPersister()}
		sup := NewSupervisor(durablePolicy(200*time.Microsecond, p))
		defer sup.Close()
		kv := newDurableKV()
		g := newGatedSet(kv)
		d := spawnGated(t, sup, "w", g, kv)
		v := 0
		// step grows the state by a key, takes one epoch, and checks how
		// many buffers went back, how many are left, and — when the store
		// recorded the epoch — that it holds the bytes captured, whatever
		// was written into the recycled buffer since.
		step := func(handBacks, buffers int, stored bool, what string) {
			t.Helper()
			v++
			if err := d.Inbox().Send(linear.New(v)); err != nil {
				t.Fatal(err)
			}
			_, before := g.counts()
			epoch(t, d, g)
			if _, after := g.counts(); after-before != handBacks {
				t.Fatalf("%s: %d hand-backs, want %d", what, after-before, handBacks)
			}
			if n := reachable(t, d, g); n != buffers {
				t.Fatalf("%s: %d epoch buffers reachable, want %d", what, n, buffers)
			}
			payload, _, _, _ := p.LastEpoch("w")
			g.mu.Lock()
			same := bytes.Equal(payload, g.lastWire)
			g.mu.Unlock()
			if same != stored {
				t.Fatalf("%s: the store holds the epoch just captured = %v, want %v", what, same, stored)
			}
		}
		step(1, 1, true, "first epoch")
		step(1, 1, true, "second epoch")
		step(1, 1, true, "third epoch")

		// Persist fails before the store records: the epoch stays in RAM
		// as the last good one, so nothing goes back. The next success
		// hands back both: the failed epoch (replaced) and its own (held
		// by the store now), keeping one of them as the spare.
		p.arm(true, false)
		step(0, 1, false, "persist error")
		step(2, 1, true, "first success after a persist error")

		// Fsync fails after the store recorded: the runtime is not told
		// the store holds it, so the same as above.
		p.arm(false, true)
		step(0, 1, true, "fsync error after the append")
		step(2, 1, true, "first success after an fsync error")
		step(1, 1, true, "second success after an fsync error")
		if sn := d.Snapshot(); sn.PersistFailures != 2 {
			t.Fatalf("persist failures = %d, want 2", sn.PersistFailures)
		}
	})

	t.Run("store behind a wrapper", func(t *testing.T) {
		sup := NewSupervisor(durablePolicy(200*time.Microsecond, wrappedPersister{newMemPersister()}))
		defer sup.Close()
		kv := newDurableKV()
		g := newGatedSet(kv)
		d := spawnGated(t, sup, "w", g, kv)
		seeds, _ := g.counts() // the seed is never persisted, so never back
		for i := 0; i < 5; i++ {
			epoch(t, d, g)
		}
		if captured, recycled := g.counts(); recycled != captured-seeds {
			t.Fatalf("%d captures, %d hand-backs behind a Persister wrapper; every persisted epoch should be back", captured, recycled)
		}
	})
}

// TestDurableDomainKeepsOneEpochBuffer: once warm, every epoch of a
// durable domain is captured into the same buffer — the runtime holds
// the store's record, not the bytes — and a restart restores from the
// store exactly the state the last epoch captured.
func TestDurableDomainKeepsOneEpochBuffer(t *testing.T) {
	p := newMemPersister()
	sup := NewSupervisor(durablePolicy(200*time.Microsecond, p))
	defer sup.Close()
	kv := newDurableKV()
	g := newGatedSet(kv)
	d := spawnGated(t, sup, "w", g, kv)
	for i := 0; i < 26; i++ { // every key the handler writes: the state stops growing
		if err := d.Inbox().Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
		epoch(t, d, g)
	}
	epoch(t, d, g) // a capture parks before the payload it was granted for: this one has all 26
	buf := g.lastCaptured()
	for i := 0; i < 20; i++ {
		if err := d.Inbox().Send(linear.New(100 + i)); err != nil {
			t.Fatal(err)
		}
		epoch(t, d, g)
		if g.lastCaptured() != buf {
			t.Fatalf("epoch %d was captured into a second buffer", i)
		}
		if n := reachable(t, d, g); n != 1 {
			t.Fatalf("%d epoch buffers reachable, want the one spare", n)
		}
	}
	if d.ck.last.Load().token != nil {
		t.Fatal("the last good epoch of a durable domain is a buffer, not the store's record")
	}

	oracle := map[string]int{}
	kv.mu.Lock()
	for k, v := range kv.m {
		oracle[k] = v
	}
	kv.mu.Unlock()
	restores := d.Snapshot().Restores
	// The parked capture runs first (an epoch of the oracle's state); then
	// -1 writes "torn" and panics, and the restart restores from the store.
	if err := d.Inbox().Send(linear.New(-1)); err != nil {
		t.Fatal(err)
	}
	g.permits <- struct{}{}
	waitFor(t, "durable restore", func() bool {
		sn := d.Snapshot()
		return sn.Restarts >= 1 && sn.Restores > restores && g.waiting.Load() == 1
	})
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if len(kv.m) != len(oracle) {
		t.Fatalf("restored %d keys, the last epoch held %d", len(kv.m), len(oracle))
	}
	for k, v := range oracle {
		if kv.m[k] != v {
			t.Fatalf("key %s restored as %d, want %d", k, kv.m[k], v)
		}
	}
	if sn := d.Snapshot(); sn.ColdStarts != 0 || sn.CheckpointFailures != 0 {
		t.Fatalf("cold starts %d, checkpoint failures %d; want 0, 0", sn.ColdStarts, sn.CheckpointFailures)
	}
}

// raceHangVerdict retires d's serving generation wherever it stands,
// through the supervisor's own hang-verdict steps (supersede, reference
// table reset, restart after backoff). In production that is a verdict
// racing the end of the handler it judged: by the time it lands, the
// generation has moved on into a capture or the store's append. The
// tests below park the generation there and deliver the verdict: the
// supersession here, and the monitor's half — the reset and the restart
// it schedules — through a report for the epoch the verdict opened.
func raceHangVerdict(sup *Supervisor, d *Domain[int]) {
	d.noteHang()
	sup.hangs.Add(1)
	sup.events <- event{d, d.supersede()}
}

// TestSupersededCaptureDoesNotPublish: a hang verdict retires the domain
// while it is mid-capture. The monitor restores the domain from its last
// good epoch and starts a new generation; when the old generation's
// capture finally returns it must neither replace that epoch nor hand
// its buffer back.
func TestSupersededCaptureDoesNotPublish(t *testing.T) {
	sup := NewSupervisor(ckptPolicy(200 * time.Microsecond))
	defer sup.Close()
	kv := newDurableKV()
	g := newGatedSet(kv)
	d := spawnGated(t, sup, "victim", g, kv)

	kv.set("good", 1)
	epoch(t, d, g)
	epoch(t, d, g) // two epochs: one published, one spare in stock
	good, ok := d.lastCheckpoint()
	if !ok {
		t.Fatal("no epoch published")
	}
	goodBuf := bufOf(t, d.ck.last.Load().token)
	_, recycledBefore := g.counts()
	failedBefore := d.Snapshot().CheckpointFailures

	kv.set("torn", 2) // live only: the capture below would carry it
	g.hold.Store(true)
	g.permits <- struct{}{}
	<-g.held // bytes written into the spare, generation still current
	midCapture := g.lastCaptured()

	raceHangVerdict(sup, d)
	waitFor(t, "the restart restores the victim", func() bool {
		sn := d.Snapshot()
		return sn.Restarts >= 1 && sn.Restores >= 1
	})
	if _, ok := kv.get("torn"); ok {
		t.Fatal("restore kept a key that no published epoch carried")
	}
	g.release <- struct{}{} // the superseded capture returns now

	waitFor(t, "refused publish is counted", func() bool {
		return d.Snapshot().CheckpointFailures == failedBefore+1
	})
	if at, _ := d.lastCheckpoint(); !at.Equal(good) {
		t.Fatal("a superseded generation replaced the last good epoch")
	}
	if bufOf(t, d.ck.last.Load().token) != goodBuf {
		t.Fatal("the last good epoch's buffer changed")
	}
	if _, recycled := g.counts(); recycled != recycledBefore {
		t.Fatal("a superseded generation handed a buffer back")
	}
	g.StateSet.mu.Lock()
	spare := g.spare
	g.StateSet.mu.Unlock()
	if spare != nil && bufOf(t, spare) == midCapture {
		t.Fatal("the unpublished capture's buffer went back into stock")
	}
	// The new generation publishes normally.
	epoch(t, d, g)
	if at, _ := d.lastCheckpoint(); !at.After(good) {
		t.Fatal("the new generation did not publish")
	}
}

// TestSupersededPersistIsNotHandedBack: a hang verdict retires the
// domain while it is inside PersistEpoch, still reading its epoch's
// bytes. The next generation replaces that epoch, but may not hand its
// buffer back — the old generation is reading it — and when the old
// generation's append finally runs, the store refuses it as older than
// the new generation's, so the durable reference still names the
// store's newest epoch and a restart restores it.
func TestSupersededPersistIsNotHandedBack(t *testing.T) {
	p := &copyPersister{memPersister: newMemPersister(), entered: make(chan struct{}), release: make(chan struct{})}
	sup := NewSupervisor(durablePolicy(200*time.Microsecond, p))
	defer sup.Close()
	kv := newDurableKV()
	g := newGatedSet(kv)
	d := spawnGated(t, sup, "victim", g, kv)
	kv.set("good", 1)
	epoch(t, d, g)
	epoch(t, d, g)

	p.mu.Lock()
	p.hold = true
	p.mu.Unlock()
	g.permits <- struct{}{}
	<-p.entered // published, and the store is reading the bytes
	reading := g.lastCaptured()
	_, since := g.counts()
	raceHangVerdict(sup, d)
	waitFor(t, "the restart", func() bool {
		sn := d.Snapshot()
		return sn.Restarts >= 1 && g.waiting.Load() == 1
	})
	epoch(t, d, g) // the new generation replaces the epoch being persisted
	if newest := d.ck.last.Load(); newest.token != nil {
		t.Fatal("the new generation's epoch did not become durable")
	}
	handedBack := func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		for _, b := range g.recycled[since:] {
			if b == reading {
				return true
			}
		}
		return false
	}
	if handedBack() {
		t.Fatal("a buffer the superseded generation was persisting was handed back")
	}
	failures := d.Snapshot().PersistFailures
	p.release <- struct{}{}
	waitFor(t, "the superseded append refused", func() bool { return d.Snapshot().PersistFailures == failures+1 })
	if handedBack() {
		t.Fatal("the superseded generation handed its buffer back")
	}

	restores := d.Snapshot().Restores
	raceHangVerdict(sup, d)
	waitFor(t, "restore from the durable epoch", func() bool { return d.Snapshot().Restores > restores })
	if sn := d.Snapshot(); sn.ColdStarts != 0 {
		t.Fatalf("%d cold starts", sn.ColdStarts)
	}
	if v, ok := kv.get("good"); !ok || v != 1 {
		t.Fatal("the restore from the store lost the epoch's state")
	}
}

// orderedKV is a plain Stateful that watches for what must never happen
// while a restore reads the last epoch: a publish (LastCheckpoint moves)
// or a hand-back.
type orderedKV struct {
	kvState
	dom        atomic.Pointer[Domain[int]]
	restoring  atomic.Bool
	restores   atomic.Int64
	violations atomic.Int64
}

func (s *orderedKV) Restore(token any) error {
	d := s.dom.Load()
	if d == nil {
		return s.kvState.Restore(token)
	}
	at0, _ := d.lastCheckpoint()
	s.restoring.Store(true)
	time.Sleep(500 * time.Microsecond) // several epoch intervals
	err := s.kvState.Restore(token)
	s.restoring.Store(false)
	if at1, _ := d.lastCheckpoint(); !at1.Equal(at0) {
		s.violations.Add(1)
	}
	s.restores.Add(1)
	return err
}

func (s *orderedKV) RecycleToken(any) {
	if s.restoring.Load() {
		s.violations.Add(1)
	}
}

// TestNoPublishOrHandBackDuringRestore asserts the ordering the hand-back
// rule leans on instead of assuming it: restoreLast runs on the
// monitor strictly between the old generation's exit or supersession and
// the new one's start, so nothing publishes and nothing is handed back
// while it reads the last epoch — under handler panics and hang
// abandonment with epochs every 100µs.
func TestNoPublishOrHandBackDuringRestore(t *testing.T) {
	p := ckptPolicy(100 * time.Microsecond)
	p.HangAfter = 2 * time.Millisecond
	sup := NewSupervisor(p)
	defer sup.Close()
	states := []*orderedKV{{kvState: kvState{m: map[string]int{}}}, {kvState: kvState{m: map[string]int{}}}}
	doms := make([]*Domain[int], len(states))
	for i, st := range states {
		st := st
		d, err := Spawn(sup, Config[int]{
			Name:  string(rune('a' + i)),
			State: st,
			Handler: func(msg linear.Owned[int]) error {
				v, err := msg.Into()
				if err != nil {
					return err
				}
				switch {
				case v%17 == 0:
					panic("injected handler crash")
				case v%29 == 0:
					time.Sleep(4 * time.Millisecond) // past HangAfter: abandoned
				}
				st.set("k", v)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		st.dom.Store(d)
		doms[i] = d
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for v := 1; time.Now().Before(deadline); v++ {
		_ = doms[v%2].Inbox().trySend(linear.New(v))
		if v%8 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	waitFor(t, "restores under chaos", func() bool {
		return states[0].restores.Load() >= 3 && states[1].restores.Load() >= 3
	})
	for i, st := range states {
		if n := st.violations.Load(); n != 0 {
			t.Fatalf("domain %d: %d publishes or hand-backs while a restore was reading the last epoch", i, n)
		}
	}
}
