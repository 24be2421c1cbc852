package domain

// owner_test.go covers who owns an epoch's bytes: the publish a
// superseded generation must not make, on the buffer path (a state that
// does not stream) and into a store, and the ordering both lean on — no
// publish and no commit while a restore is reading the last epoch. The
// streamed epoch's rows, RAM and durable, are in stream_test.go.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/linear"
	"repro/internal/sim"
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

// gatedSet is a StateSet whose captures wait for the test: one permit,
// one capture, into a buffer (Checkpoint, recorded) or into the domain's
// stream (capture, counted). hold makes the next capture wait a second
// time after the bytes are written, which is where a generation can be
// superseded mid-capture. With bufferOnly set,
// spawnGated hides the streaming capture, as a wrapper would.
type gatedSet struct {
	*StateSet
	bufferOnly bool
	permits    chan struct{}
	waiting    atomic.Int32 // captures parked on permits
	streamed   atomic.Int32
	// failStream fails the next streamed capture, before it writes.
	failStream atomic.Bool
	hold       atomic.Bool
	held       chan struct{} // signalled when a capture is holding
	release    chan struct{}
	captured   atomic.Int32
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
	if !g.admit() {
		return nil, errors.New("gatedSet: test over")
	}
	tok, err := g.StateSet.Checkpoint(e)
	if err == nil {
		g.captured.Add(1)
	}
	g.holdIfAsked()
	return tok, err
}

// capture gates a streamed capture the way Checkpoint gates a buffered
// one; hold parks it after its bytes are written (every full chunk in the
// store, or the whole epoch in the RAM sink's open buffer) and before the
// runtime commits the epoch. streamed counts them.
func (g *gatedSet) capture(buf []byte, st *epochStream) ([]byte, error) {
	if !g.admit() {
		return nil, errors.New("gatedSet: test over")
	}
	if g.failStream.CompareAndSwap(true, false) {
		return nil, errors.New("gatedSet: injected capture error")
	}
	tail, err := g.StateSet.capture(buf, st)
	g.streamed.Add(1)
	g.holdIfAsked()
	return tail, err
}

// admit waits for the test's permit; false once the test is over.
func (g *gatedSet) admit() bool {
	g.waiting.Add(1)
	_, open := <-g.permits
	g.waiting.Add(-1)
	return open
}

func (g *gatedSet) holdIfAsked() {
	if g.hold.CompareAndSwap(true, false) {
		g.held <- struct{}{}
		<-g.release
	}
}

// counts reports the captures into a buffer and the streamed ones.
func (g *gatedSet) counts() (captured, streamed int) {
	return int(g.captured.Load()), int(g.streamed.Load())
}

// copyPersister is a store in miniature that keeps the bytes, not the
// slice: it copies each payload, as a store writing it to a file does,
// hands out copies, and refuses an epoch no newer than the one it holds.
// It does not stream. hold makes the next call signal entered and wait
// for release while it still has the payload.
type copyPersister struct {
	*memPersister
	hold             bool // guarded by memPersister.mu
	entered, release chan struct{}
}

func (p *copyPersister) PersistEpoch(name string, seq uint64, payload []byte) error {
	p.mu.Lock()
	hold := p.hold
	p.hold = false
	p.mu.Unlock()
	if hold {
		p.entered <- struct{}{}
		<-p.release
	}
	if newest := p.lastSeq(name); seq <= newest {
		return fmt.Errorf("copyPersister: epoch %d is not newer than %d", seq, newest)
	}
	return p.memPersister.PersistEpoch(name, seq, payload)
}

// spawnGated spawns a domain over g whose handler sets one key per
// payload; -1 also sets "torn" before it panics, any other negative
// payload just panics.
func spawnGated(t *testing.T, s *Supervisor, name string, g *gatedSet, kv *durableKV) *Domain[int] {
	t.Helper()
	var state Stateful = g
	if g.bufferOnly {
		state = struct{ Stateful }{g}
	}
	g.permits <- struct{}{} // the seed, Spawn's capture
	d, err := Spawn(s, Config[int]{
		Name:  name,
		State: state,
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
// finished with it — publish, commit and persist all happen on that
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

// reachable counts the distinct epoch buffers the runtime holds between
// epochs: a RAM token's, and a RAM sink's two (a reference into a store
// holds none).
func reachable(t *testing.T, d *Domain[int], _ *gatedSet) int {
	t.Helper()
	seen := map[*byte]bool{}
	if last := d.ck.last.Load(); last != nil && last.token != nil {
		seen[bufOf(t, last.token)] = true
	}
	if s := d.ck.sink; s != nil {
		for _, tok := range []*setToken{&s.open, &s.committed} {
			if cap(tok.wire) > 0 {
				seen[bufOf(t, tok)] = true
			}
		}
	}
	return len(seen)
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

// TestSupersededCaptureDoesNotPublish: a hang verdict retires a domain on
// the buffer path while it is mid-capture. The monitor restores the
// domain from its last good epoch and starts a new generation; when the
// old generation's capture finally returns it must not replace that
// epoch.
func TestSupersededCaptureDoesNotPublish(t *testing.T) {
	sup := NewSupervisor(ckptPolicy(200*time.Microsecond), sim.Wall{})
	defer sup.Close()
	kv := newDurableKV()
	g := newGatedSet(kv)
	g.bufferOnly = true
	d := spawnGated(t, sup, "victim", g, kv)

	kv.set("good", 1)
	epoch(t, d, g)
	epoch(t, d, g)
	good, ok := d.lastCheckpoint()
	if !ok {
		t.Fatal("no epoch published")
	}
	goodBuf := bufOf(t, d.ck.last.Load().token)
	failedBefore := d.Snapshot().CheckpointFailures

	kv.set("torn", 2) // live only: the capture below would carry it
	g.hold.Store(true)
	g.permits <- struct{}{}
	<-g.held // bytes written, generation still current

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
	// The new generation publishes normally.
	epoch(t, d, g)
	if at, _ := d.lastCheckpoint(); !at.After(good) {
		t.Fatal("the new generation did not publish")
	}
}

// TestSupersededPersistIsRefused: a hang verdict retires a domain on the
// buffer path while it is inside PersistEpoch, still reading its epoch's
// bytes. The next generation replaces that epoch and makes its own
// durable; when the old generation's append finally runs, the store
// refuses it as older, so the durable reference still names the store's
// newest epoch and a restart restores it.
func TestSupersededPersistIsRefused(t *testing.T) {
	p := &copyPersister{memPersister: newMemPersister(), entered: make(chan struct{}), release: make(chan struct{})}
	sup := NewSupervisor(durablePolicy(200*time.Microsecond, p), sim.Wall{})
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
	raceHangVerdict(sup, d)
	waitFor(t, "the restart", func() bool {
		sn := d.Snapshot()
		return sn.Restarts >= 1 && g.waiting.Load() == 1
	})
	epoch(t, d, g) // the new generation replaces the epoch being persisted
	if newest := d.ck.last.Load(); newest.token != nil {
		t.Fatal("the new generation's epoch did not become durable")
	}
	failures := d.Snapshot().PersistFailures
	p.release <- struct{}{}
	waitFor(t, "the superseded append refused", func() bool { return d.Snapshot().PersistFailures == failures+1 })

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

// orderedSet is a StateSet over one durableKV, so its epochs stream into
// a RAM sink, that watches for what must never happen while a restore
// reads the last epoch: a publish (lastCheckpoint moves) or a commit
// (the sink's committed epoch moves).
type orderedSet struct {
	*StateSet
	kv         *durableKV
	dom        atomic.Pointer[Domain[int]]
	restores   atomic.Int64
	violations atomic.Int64
}

func (s *orderedSet) Restore(token any) error {
	d := s.dom.Load()
	if d == nil {
		return s.StateSet.Restore(token)
	}
	at0, _ := d.lastCheckpoint()
	wire0 := d.ck.sink.committed.wire
	time.Sleep(500 * time.Microsecond) // several epoch intervals
	err := s.StateSet.Restore(token)
	at1, _ := d.lastCheckpoint()
	if wire1 := d.ck.sink.committed.wire; !at1.Equal(at0) || len(wire1) != len(wire0) || &wire1[:1][0] != &wire0[:1][0] {
		s.violations.Add(1)
	}
	s.restores.Add(1)
	return err
}

// TestNoPublishOrHandBackDuringRestore asserts the ordering the sink's
// lack of a lock leans on instead of assuming it: restoreLast runs on the
// monitor strictly between the old generation's exit or supersession and
// the new one's start, so nothing publishes and nothing commits while it
// reads the last epoch — under handler panics and hang abandonment with
// epochs every 100µs. Wall time: the hangs only add restores to check, so
// it asserts none of their counts, and load only adds to them.
func TestNoPublishOrHandBackDuringRestore(t *testing.T) {
	p := ckptPolicy(100 * time.Microsecond)
	p.HangAfter = 2 * time.Millisecond
	sup := NewSupervisor(p, sim.Wall{})
	defer sup.Close()
	states := make([]*orderedSet, 2)
	doms := make([]*Domain[int], len(states))
	for i := range states {
		st := &orderedSet{kv: newDurableKV()}
		st.StateSet = NewStateSet().Add("kv", st.kv)
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
				st.kv.set("k", v)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		st.dom.Store(d)
		states[i], doms[i] = st, d
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
			t.Fatalf("domain %d: %d publishes or commits while a restore was reading the last epoch", i, n)
		}
	}
}
