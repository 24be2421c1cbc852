package domain

// stream_test.go covers the epoch that streams: a domain over a store
// that takes chunks writes every epoch through its one chunk and keeps no
// image of it, a generation superseded mid-stream never commits into the
// store or the RAM sink, a stream the store fails leaves a RAM epoch
// standing, and one whose capture fails leaves the epoch to the store
// whole.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/sim"
)

// streamPersister is a memPersister that also takes streamed epochs, the
// way statestore.Store does: an open stream's chunks are copied as they
// come and joined at the commit; an abort, a failed chunk or the next
// stream's first chunk drops them. failChunk fails the next AppendChunk,
// failSync the next SyncEpoch (after the commit recorded the epoch, as a
// failed fsync does).
type streamPersister struct {
	*memPersister
	open                map[string]*openEpoch // guarded by memPersister.mu
	chunks              int
	failChunk, failSync bool
}

type openEpoch struct {
	seq   uint64
	index int
	data  []byte
}

func newStreamPersister() *streamPersister {
	return &streamPersister{memPersister: newMemPersister(), open: map[string]*openEpoch{}}
}

func (p *streamPersister) AppendChunk(name string, seq uint64, index int, chunk []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failChunk {
		p.failChunk = false
		delete(p.open, name)
		return errors.New("streamPersister: injected chunk failure")
	}
	o := p.open[name]
	if index == 0 {
		if seq <= p.epochs[name].seq || (o != nil && seq <= o.seq) {
			return fmt.Errorf("streamPersister: epoch %d of %s is not newer", seq, name)
		}
		o = &openEpoch{seq: seq}
		p.open[name] = o
	} else if o == nil || o.seq != seq || o.index != index {
		return fmt.Errorf("streamPersister: chunk %d of epoch %d of %s continues no stream", index, seq, name)
	}
	o.data = append(o.data, chunk...)
	o.index++
	p.chunks++
	return nil
}

func (p *streamPersister) CommitEpoch(name string, seq uint64, index int, chunk []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var data []byte
	if index > 0 {
		o := p.open[name]
		if o == nil || o.seq != seq || o.index != index {
			return fmt.Errorf("streamPersister: commit %d of epoch %d of %s ends no stream", index, seq, name)
		}
		data = o.data
	} else if seq <= p.epochs[name].seq {
		return fmt.Errorf("streamPersister: epoch %d of %s is not newer", seq, name)
	}
	delete(p.open, name)
	p.persists++
	p.epochs[name] = struct {
		seq     uint64
		payload []byte
	}{seq, append(data, chunk...)}
	return nil
}

func (p *streamPersister) SyncEpoch(string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failSync {
		p.failSync = false
		return errors.New("streamPersister: injected fsync failure")
	}
	return nil
}

func (p *streamPersister) AbortEpoch(name string, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if o := p.open[name]; o != nil && o.seq == seq {
		delete(p.open, name)
	}
}

func (p *streamPersister) arm(chunk, sync bool) {
	p.mu.Lock()
	p.failChunk, p.failSync = chunk, sync
	p.mu.Unlock()
}

// streaming reports whether name has a stream open, and how many chunks
// have been appended in all.
func (p *streamPersister) streaming(name string) (bool, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.open[name] != nil, p.chunks
}

// snapshot copies the state's map.
func (s *durableKV) snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

func sameKV(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// bigKV is a durableKV whose image spans several epoch chunks.
func bigKV() *durableKV {
	kv := newDurableKV()
	for i := 0; i < 2000; i++ {
		kv.set(fmt.Sprintf("%0100d", i), i) // 110 bytes an entry: 220 KB
	}
	return kv
}

// TestDurableDomainKeepsNoEpochImage: a durable domain over a store that
// takes streamed epochs writes each epoch through its one chunk — four
// chunks an epoch here — and holds the store's record, not the bytes: no
// epoch buffer is reachable between epochs, nothing is captured into
// RAM after the seed, and a restart restores from the store exactly the
// state the last epoch captured.
func TestDurableDomainKeepsNoEpochImage(t *testing.T) {
	p := newStreamPersister()
	sup := NewSupervisor(durablePolicy(200*time.Microsecond, p), sim.Wall{})
	defer sup.Close()
	kv := bigKV()
	g := newGatedSet(kv)
	d := spawnGated(t, sup, "w", g, kv)
	seeds, _ := g.counts()
	for i := 0; i < 10; i++ {
		if err := d.Inbox().Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
		_, before := p.streaming("w")
		epoch(t, d, g)
		if _, after := p.streaming("w"); after-before < 3 {
			t.Fatalf("epoch %d went to the store in %d chunks and a commit, want at least 3 chunks", i, after-before)
		}
		if last := d.ck.last.Load(); last.token != nil || last.seq != p.lastSeq("w") {
			t.Fatalf("epoch %d: the last good epoch is not a reference to the store's newest", i)
		}
		if n := reachable(t, d, g); n != 0 {
			t.Fatalf("epoch %d: %d epoch buffers reachable, want none", i, n)
		}
	}
	if captured, _ := g.counts(); captured != seeds {
		t.Fatalf("%d captures into a buffer after the seed, want none", captured-seeds)
	}
	if n := g.streamed.Load(); n != 10 {
		t.Fatalf("%d streamed captures, want 10", n)
	}

	oracle := kv.snapshot()
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
	if got := kv.snapshot(); !sameKV(got, oracle) {
		t.Fatalf("restored %d keys, the last epoch held %d", len(got), len(oracle))
	}
	if sn := d.Snapshot(); sn.CheckpointFailures != 0 || sn.PersistFailures != 0 {
		t.Fatalf("checkpoint failures %d, persist failures %d; want 0, 0", sn.CheckpointFailures, sn.PersistFailures)
	}
}

// TestSupersededStreamNeverCommits: a hang verdict retires the domain
// after its capture reached the store, or its RAM sink's open buffer, and
// before the commit. The restart restores the newest committed epoch,
// which is still the last good one: byte for byte, though it is several
// chunks long. When the old generation goes on it must not commit, and
// a store's stream is aborted. The next generation streams again.
func TestSupersededStreamNeverCommits(t *testing.T) {
	for _, durable := range []bool{true, false} {
		name := "ram"
		if durable {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			p := newStreamPersister()
			pol := ckptPolicy(200 * time.Microsecond)
			if durable {
				pol.Persist = p
			}
			sup := NewSupervisor(pol, sim.Wall{})
			defer sup.Close()
			kv := bigKV()
			g := newGatedSet(kv)
			d := spawnGated(t, sup, "victim", g, kv)
			// newest is the domain's newest committed epoch: the store's, or
			// its RAM sink's.
			newest := func() []byte {
				if durable {
					payload, _, _, _ := p.LastEpoch("victim")
					return payload
				}
				return bytes.Clone(d.ck.sink.committed.wire)
			}
			kv.set("good", 1)
			epoch(t, d, g)
			epoch(t, d, g)
			good, last := newest(), d.ck.last.Load()
			goodSeq := last.seq
			if last.token != nil || (durable && goodSeq != p.lastSeq("victim")) {
				t.Fatal("the last good epoch is not a reference to the newest committed one")
			}
			if n := reachable(t, d, g); !durable && n != 2 {
				t.Fatalf("%d epoch buffers reachable, want the sink's two", n)
			}
			failed := d.Snapshot().CheckpointFailures

			kv.set("torn", 2) // live only: the stream below carries it
			g.hold.Store(true)
			g.permits <- struct{}{}
			<-g.held // every full chunk is in the store, or the epoch in the sink; the commit is next
			if open, _ := p.streaming("victim"); durable && !open {
				t.Fatal("no stream open mid-capture")
			}
			raceHangVerdict(sup, d)
			waitFor(t, "the restart restores the victim", func() bool {
				sn := d.Snapshot()
				return sn.Restarts >= 1 && sn.Restores >= 1
			})
			if _, ok := kv.get("torn"); ok {
				t.Fatal("the restore kept a key that no committed epoch carried")
			}
			restored, err := g.StateSet.Checkpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(good) < 3*epochChunkSize || !bytes.Equal(restored.(*setToken).wire, good) {
				t.Fatalf("the restored state captures as %d bytes, not the %d bytes of the last good epoch", len(restored.(*setToken).wire), len(good))
			}
			g.release <- struct{}{} // the superseded generation goes on to its commit
			waitFor(t, "the refused commit is counted", func() bool {
				return d.Snapshot().CheckpointFailures == failed+1
			})
			if !bytes.Equal(newest(), good) {
				t.Fatal("a superseded generation committed its epoch")
			}
			if open, _ := p.streaming("victim"); open {
				t.Fatal("the superseded generation's stream was left open")
			}
			if d.ck.last.Load() != last || last.token != nil || last.seq != goodSeq {
				t.Fatal("a superseded generation replaced the last good epoch")
			}
			epoch(t, d, g) // may find the stream still held: the buffer path, persisted whole
			streamed := g.streamed.Load()
			epoch(t, d, g)
			if g.streamed.Load() != streamed+1 {
				t.Fatal("the new generation does not stream")
			}
			if now := d.ck.last.Load(); now.token != nil || now.seq <= goodSeq || (durable && now.seq != p.lastSeq("victim")) {
				t.Fatal("the new generation's epoch is not the newest committed one")
			}
			if sn := d.Snapshot(); !durable && (sn.Persisted != 0 || sn.PersistFailures != 0) {
				t.Fatalf("a RAM domain counts %d persisted epochs and %d persist failures, want none", sn.Persisted, sn.PersistFailures)
			}
		})
	}
}

// TestFailedStreamLeavesARAMEpoch: a chunk the store refuses, or an
// fsync that fails after the commit, ends the stream; the domain captures
// the epoch into RAM instead, and that epoch stands as the last good one
// (a restart restores it), counted once. The next epoch streams again.
func TestFailedStreamLeavesARAMEpoch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		chunk, sync bool
	}{{"chunk", true, false}, {"fsync", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newStreamPersister()
			sup := NewSupervisor(durablePolicy(200*time.Microsecond, p), sim.Wall{})
			defer sup.Close()
			kv := bigKV()
			g := newGatedSet(kv)
			d := spawnGated(t, sup, "w", g, kv)
			epoch(t, d, g)
			newest := p.lastSeq("w")

			kv.set("late", 7)
			p.arm(tc.chunk, tc.sync)
			sn := d.Snapshot()
			captured, _ := g.counts()
			g.permits <- struct{}{}
			g.permits <- struct{}{} // the failed stream, then the capture into RAM
			waitFor(t, "the RAM epoch", func() bool {
				now, _ := g.counts()
				return now == captured+1 && g.waiting.Load() == 1
			})
			after := d.Snapshot()
			if after.PersistFailures != sn.PersistFailures+1 || after.CheckpointFailures != sn.CheckpointFailures {
				t.Fatalf("persist failures %d -> %d, checkpoint failures %d -> %d; want one more persist failure only",
					sn.PersistFailures, after.PersistFailures, sn.CheckpointFailures, after.CheckpointFailures)
			}
			if after.Checkpoints != sn.Checkpoints+1 {
				t.Fatalf("checkpoints %d -> %d over one epoch", sn.Checkpoints, after.Checkpoints)
			}
			last := d.ck.last.Load()
			if last.token == nil || !bytes.Contains(last.token.(*setToken).wire, []byte("late")) {
				t.Fatal("the last good epoch is not the RAM capture of the failed epoch")
			}
			if tc.chunk && p.lastSeq("w") != newest {
				t.Fatal("a stream whose chunk failed was committed")
			}
			if open, _ := p.streaming("w"); open {
				t.Fatal("the failed stream was left open")
			}
			kv.set("late", 8) // live only: the restore below must undo it
			restores := d.Snapshot().Restores
			if err := d.restoreLast(); err != nil {
				t.Fatal(err)
			}
			if v, ok := kv.get("late"); !ok || v != 7 || d.Snapshot().Restores != restores+1 {
				t.Fatal("a restore of the last good epoch lost the RAM epoch's state")
			}

			streamed := g.streamed.Load()
			epoch(t, d, g)
			if g.streamed.Load() != streamed+1 {
				t.Fatal("the epoch after a failed stream does not stream")
			}
			if last := d.ck.last.Load(); last.token != nil || last.seq != p.lastSeq("w") {
				t.Fatal("the epoch after a failed stream is not the store's newest")
			}
			payload, _, _, _ := p.LastEpoch("w")
			if !bytes.Contains(payload, []byte("late")) {
				t.Fatal("the store's newest epoch lacks the state the failed one carried")
			}
		})
	}
}

// TestCaptureErrorPersistsTheRAMEpoch: a stream whose capture fails
// without the store failing it (here a part that errs only when it
// streams) is aborted, and the epoch goes the buffer path: captured into
// RAM and persisted whole, no persist failure counted, and the store's
// newest epoch is the last good one.
func TestCaptureErrorPersistsTheRAMEpoch(t *testing.T) {
	p := newStreamPersister()
	sup := NewSupervisor(durablePolicy(200*time.Microsecond, p), sim.Wall{})
	defer sup.Close()
	kv := bigKV()
	g := newGatedSet(kv)
	d := spawnGated(t, sup, "w", g, kv)
	epoch(t, d, g)
	newest := p.lastSeq("w")

	kv.set("late", 7)
	g.failStream.Store(true)
	sn := d.Snapshot()
	g.permits <- struct{}{}
	g.permits <- struct{}{} // the failed stream, then the capture into RAM
	waitFor(t, "the RAM epoch, persisted", func() bool {
		return d.Snapshot().Persisted == sn.Persisted+1 && g.waiting.Load() == 1
	})
	after := d.Snapshot()
	if after.PersistFailures != sn.PersistFailures || after.Checkpoints != sn.Checkpoints+1 {
		t.Fatalf("persist failures %d -> %d, checkpoints %d -> %d; want no persist failure and one checkpoint",
			sn.PersistFailures, after.PersistFailures, sn.Checkpoints, after.Checkpoints)
	}
	if open, _ := p.streaming("w"); open {
		t.Fatal("the failed stream was left open")
	}
	payload, seq, _, _ := p.LastEpoch("w")
	if seq <= newest || !bytes.Contains(payload, []byte("late")) {
		t.Fatal("the store's newest epoch is not the RAM capture of the failed stream")
	}
	if last := d.ck.last.Load(); last.token != nil || last.seq != seq {
		t.Fatal("the last good epoch is not the store's newest")
	}
}
