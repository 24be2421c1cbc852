package domain

// durable_test.go covers the Policy.Persist path: epochs flow through
// the TokenCodec into a Persister, Spawn seeds from the newest durable
// epoch (the kill -9 half of recovery, minus the kill), persist errors
// stay soft, and states without a codec are rejected up front.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/linear"
)

// durableKV is the wire-form test state, shaped as a StateSet part the
// way session.Table, maglev.Balancer and firewall.Stateful are: the map
// as sorted key/value pairs, written straight from the live map.
// encodeErr injects codec failures into soloKV; it is read on the
// serving goroutine.
type durableKV struct {
	kvState
	encodeErr atomic.Pointer[error]
}

func newDurableKV() *durableKV { return &durableKV{kvState: kvState{m: make(map[string]int)}} }

func (s *durableKV) setEncodeErr(err error) {
	if err == nil {
		s.encodeErr.Store(nil)
		return
	}
	s.encodeErr.Store(&err)
}

func (s *durableKV) CheckpointSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 4
	for k := range s.m {
		n += 2 + len(k) + 8
	}
	return n
}

func (s *durableKV) AppendCheckpoint(buf []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.m[k])))
	}
	return buf, nil
}

// parse decodes a wire image into a fresh map.
func (s *durableKV) parse(data []byte) (map[string]int, error) {
	if len(data) < 4 {
		return nil, errors.New("durableKV: truncated")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > len(data)/10 { // each entry is ≥ 2+0+8 bytes
		return nil, errors.New("durableKV: entry count exceeds payload")
	}
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		if len(data) < 2 {
			return nil, errors.New("durableKV: truncated key")
		}
		kl := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < kl+8 {
			return nil, errors.New("durableKV: truncated entry")
		}
		m[string(data[:kl])] = int(int64(binary.LittleEndian.Uint64(data[kl:])))
		data = data[kl+8:]
	}
	if len(data) != 0 {
		return nil, errors.New("durableKV: trailing bytes")
	}
	return m, nil
}

func (s *durableKV) CheckCheckpoint(data []byte) error {
	_, err := s.parse(data)
	return err
}

func (s *durableKV) Restore(data []byte) error {
	m, err := s.parse(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.m = m
	s.mu.Unlock()
	return nil
}

// soloKV runs a durableKV alone as a domain's state: its token is the
// part's wire bytes, so its TokenCodec is the identity plus validation.
type soloKV struct{ *durableKV }

func (s soloKV) Checkpoint(*checkpoint.Engine) (any, error) {
	tok, err := s.AppendCheckpoint(nil)
	if s.captured != nil {
		s.captured <- struct{}{}
	}
	return tok, err
}

func (s soloKV) Restore(token any) error {
	data, ok := token.([]byte)
	if !ok {
		return fmt.Errorf("soloKV: token is %T", token)
	}
	return s.durableKV.Restore(data)
}

func (s soloKV) EncodeToken(token any) ([]byte, error) {
	if errp := s.encodeErr.Load(); errp != nil {
		return nil, *errp
	}
	data, ok := token.([]byte)
	if !ok {
		return nil, fmt.Errorf("soloKV: token is %T", token)
	}
	return data, nil
}

func (s soloKV) DecodeToken(data []byte) (any, error) {
	if err := s.CheckCheckpoint(data); err != nil {
		return nil, err
	}
	return data, nil
}

// memPersister is an in-memory Persister with fault injection.
type memPersister struct {
	mu     sync.Mutex
	epochs map[string]struct {
		seq     uint64
		payload []byte
	}
	persists int
	failNext bool
}

func newMemPersister() *memPersister {
	return &memPersister{epochs: make(map[string]struct {
		seq     uint64
		payload []byte
	})}
}

func (p *memPersister) PersistEpoch(name string, seq uint64, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failNext {
		p.failNext = false
		return errors.New("memPersister: injected failure")
	}
	p.persists++
	p.epochs[name] = struct {
		seq     uint64
		payload []byte
	}{seq, append([]byte(nil), payload...)}
	return nil
}

func (p *memPersister) LastEpoch(name string) ([]byte, uint64, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.epochs[name]
	if !ok {
		return nil, 0, false, nil
	}
	return append([]byte(nil), e.payload...), e.seq, true, nil
}

func (p *memPersister) lastSeq(name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epochs[name].seq
}

func durablePolicy(every time.Duration, p Persister) Policy {
	pol := ckptPolicy(every)
	pol.Persist = p
	return pol
}

func spawnDurableKV(t *testing.T, s *Supervisor, st *durableKV) *Domain[int] {
	t.Helper()
	d, err := Spawn(s, Config[int]{
		Name:  "kv",
		State: soloKV{st},
		Handler: func(msg linear.Owned[int]) error {
			v, err := msg.Into()
			if err != nil {
				return err
			}
			if v < 0 {
				panic("injected handler crash")
			}
			st.set(fmt.Sprintf("k%d", v), v)
			if st.served != nil {
				st.served <- struct{}{}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fakeDurableKV spawns a durable kv domain on a fake clock, ready for
// durableEpoch.
func fakeDurableKV(t *testing.T, p Policy, st *durableKV) (*Supervisor, *fakeClock, *Domain[int]) {
	t.Helper()
	sup, fc := fakeSupervisor(p)
	st.captured = make(chan struct{}, 4)
	st.served = make(chan struct{}, 4)
	d := spawnDurableKV(t, sup, st)
	<-st.captured // the seed, at Spawn
	fc.expectArmed(t, fc.now().Add(p.CheckpointEvery))
	return sup, fc, d
}

// durableEpoch moves the fake clock to d's next idle epoch and returns
// once the epoch's capture, publish and append are done: a payload sent
// after the capture is served only after them.
func durableEpoch(t *testing.T, fc *fakeClock, d *Domain[int], st *durableKV, every time.Duration) {
	t.Helper()
	fc.step(t, every)
	fc.expectArmed(t, fc.now().Add(every))
	<-st.captured
	if err := d.Inbox().Send(linear.New(1)); err != nil {
		t.Fatal(err)
	}
	<-st.served
}

// TestDurableEpochsPersist: published epochs reach the persister with
// monotonic sequence numbers and decodable payloads.
func TestDurableEpochsPersist(t *testing.T) {
	per := newMemPersister()
	sup := NewSupervisor(durablePolicy(2*time.Millisecond, per))
	defer sup.Close()
	st := newDurableKV()
	d := spawnDurableKV(t, sup, st)

	if err := d.Inbox().Send(linear.New(7)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "persisted epoch", func() bool {
		sn := d.Snapshot()
		return sn.Persisted >= 2 && per.lastSeq("kv") >= 2
	})
	sn := d.Snapshot()
	if sn.PersistFailures != 0 {
		t.Fatalf("persist failures: %d", sn.PersistFailures)
	}
	payload, seq, ok, err := per.LastEpoch("kv")
	if err != nil || !ok || seq == 0 {
		t.Fatalf("LastEpoch: seq=%d ok=%v err=%v", seq, ok, err)
	}
	if err := st.CheckCheckpoint(payload); err != nil {
		t.Fatalf("check persisted payload: %v", err)
	}
	fresh := newDurableKV()
	if err := fresh.Restore(payload); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if v, ok := fresh.get("k7"); !ok || v != 7 {
		t.Fatalf("persisted epoch lacks k7: (%d, %v)", v, ok)
	}
}

// TestDurableBootRestore: a new supervisor (process restart stand-in)
// spawning the same domain name restores the durable epoch — state
// back, restore counted, zero cold starts, sequence continues.
func TestDurableBootRestore(t *testing.T) {
	per := newMemPersister()
	// "First process": run, mutate, persist, close.
	sup1 := NewSupervisor(durablePolicy(2*time.Millisecond, per))
	st1 := newDurableKV()
	d1 := spawnDurableKV(t, sup1, st1)
	if err := d1.Inbox().Send(linear.New(42)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first-life epoch", func() bool { return d1.Snapshot().Persisted >= 1 })
	firstSeq := per.lastSeq("kv")
	sup1.Close()

	// "Second process": same name, same persister, fresh everything.
	sup2 := NewSupervisor(durablePolicy(2*time.Millisecond, per))
	defer sup2.Close()
	st2 := newDurableKV()
	d2 := spawnDurableKV(t, sup2, st2)
	if v, ok := st2.get("k42"); !ok || v != 42 {
		t.Fatalf("boot restore missed k42: (%d, %v)", v, ok)
	}
	sn := d2.Snapshot()
	if sn.Restores != 1 || sn.ColdStarts != 0 {
		t.Fatalf("restores=%d coldStarts=%d, want 1/0", sn.Restores, sn.ColdStarts)
	}
	// Sequence continuity: the next persisted epoch outranks the first
	// life's newest.
	if err := d2.Inbox().Send(linear.New(43)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second-life epoch", func() bool { return per.lastSeq("kv") > firstSeq })
	sup2.Close() // one process per name: the third life must not share it with a live second

	// And a mid-life crash restores the boot-seeded epoch even before
	// any new epoch completes (the durable epoch is the last-good).
	sup3 := NewSupervisor(durablePolicy(time.Hour, per))
	defer sup3.Close()
	st3 := newDurableKV()
	d3 := spawnDurableKV(t, sup3, st3)
	if err := d3.Inbox().Send(linear.New(-1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "crash restore from durable token", func() bool { return d3.Snapshot().Restores >= 2 })
	if d3.Snapshot().ColdStarts != 0 {
		t.Fatal("cold start despite a durable epoch")
	}
}

// TestDurablePersistErrorIsSoft: a failing persister costs durability
// lag, never service — the RAM epoch stands and later epochs persist.
func TestDurablePersistErrorIsSoft(t *testing.T) {
	per := newMemPersister()
	per.failNext = true
	p := durablePolicy(2*time.Millisecond, per)
	st := newDurableKV()
	sup, fc, d := fakeDurableKV(t, p, st)
	defer sup.Close()
	durableEpoch(t, fc, d, st, p.CheckpointEvery) // its append fails
	durableEpoch(t, fc, d, st, p.CheckpointEvery)
	if sn := d.Snapshot(); sn.PersistFailures != 1 || sn.Persisted != 1 {
		t.Fatalf("snapshot %+v: want 1 persist failure, then 1 epoch persisted", sn)
	}
	if d.State() != StateLive {
		t.Fatalf("domain state %v after soft persist failure", d.State())
	}
}

// TestDurableEncodeErrorIsSoft: same contract for codec failures.
func TestDurableEncodeErrorIsSoft(t *testing.T) {
	per := newMemPersister()
	p := durablePolicy(2*time.Millisecond, per)
	st := newDurableKV()
	st.setEncodeErr(errors.New("injected encode failure"))
	sup, fc, d := fakeDurableKV(t, p, st)
	defer sup.Close()
	durableEpoch(t, fc, d, st, p.CheckpointEvery)
	if sn := d.Snapshot(); sn.PersistFailures != 1 || sn.Persisted != 0 {
		t.Fatalf("snapshot %+v: want the encode failure counted and nothing persisted", sn)
	}
	st.setEncodeErr(nil)
	durableEpoch(t, fc, d, st, p.CheckpointEvery)
	if n := d.Snapshot().Persisted; n != 1 {
		t.Fatalf("%d epochs persisted after the encode failure, want 1", n)
	}
}

// TestDurableRequiresCodec: Persist with a codec-less State is a Spawn
// error, not a latent runtime surprise.
func TestDurableRequiresCodec(t *testing.T) {
	per := newMemPersister()
	sup := NewSupervisor(durablePolicy(2*time.Millisecond, per))
	defer sup.Close()
	_, err := Spawn(sup, Config[int]{
		Name:    "bare",
		State:   newKVState(), // no TokenCodec
		Handler: func(msg linear.Owned[int]) error { _, e := msg.Into(); return e },
	})
	if err == nil || !strings.Contains(err.Error(), "TokenCodec") {
		t.Fatalf("Spawn = %v, want TokenCodec error", err)
	}
}

// TestDurableBadPayloadFailsSpawn: an undecodable durable epoch is a
// Spawn error (misconfiguration), not a silent cold start.
func TestDurableBadPayloadFailsSpawn(t *testing.T) {
	per := newMemPersister()
	per.epochs["kv"] = struct {
		seq     uint64
		payload []byte
	}{3, []byte("garbage")}
	sup := NewSupervisor(durablePolicy(2*time.Millisecond, per))
	defer sup.Close()
	_, err := Spawn(sup, Config[int]{
		Name:    "kv",
		State:   soloKV{newDurableKV()},
		Handler: func(msg linear.Owned[int]) error { _, e := msg.Into(); return e },
	})
	if err == nil || !strings.Contains(err.Error(), "decode durable epoch") {
		t.Fatalf("Spawn = %v, want decode error", err)
	}
}

// TestStateSetTokenRoundTrip: the composite codec length-prefixes each
// part and rejects shape mismatches.
func TestStateSetTokenRoundTrip(t *testing.T) {
	a, b := newDurableKV(), newDurableKV()
	a.set("alpha", 1)
	b.set("bravo", 2)
	set := NewStateSet().Add("a", a).Add("b", b)
	token, err := set.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := set.EncodeToken(token)
	if err != nil {
		t.Fatal(err)
	}

	a2, b2 := newDurableKV(), newDurableKV()
	set2 := NewStateSet().Add("a", a2).Add("b", b2)
	token2, err := set2.DecodeToken(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := set2.Restore(token2); err != nil {
		t.Fatal(err)
	}
	if v, ok := a2.get("alpha"); !ok || v != 1 {
		t.Fatalf("part a: (%d, %v)", v, ok)
	}
	if v, ok := b2.get("bravo"); !ok || v != 2 {
		t.Fatalf("part b: (%d, %v)", v, ok)
	}

	// Shape mismatches are errors.
	short := NewStateSet().Add("a", newDurableKV())
	if _, err := short.DecodeToken(payload); err == nil {
		t.Fatal("part-count mismatch accepted")
	}
	if _, err := set2.DecodeToken(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated composite accepted")
	}
	if _, err := set2.DecodeToken(append(append([]byte(nil), payload...), 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := set.EncodeToken([]any{nil, nil}); err == nil {
		t.Fatal("non-byte token accepted in encode")
	}
	// The token holds the payload: encode and decode alias, not copy.
	if tb := token.(*setToken).wire; &tb[0] != &payload[0] {
		t.Fatal("EncodeToken copied the token")
	}
	if tb := token2.(*setToken).wire; &tb[0] != &payload[0] {
		t.Fatal("DecodeToken copied the payload")
	}
}
