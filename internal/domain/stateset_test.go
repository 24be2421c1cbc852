package domain_test

// stateset_test.go holds a StateSet of the production parts to the part
// contract: a warm RAM epoch and a warm restore allocate nothing, and
// DecodeToken accepts exactly what Restore can apply.

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/firewall"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
)

// newBalancer returns a balancer over n named backends.
func newBalancer(tb testing.TB, n, tableSize int) *maglev.Balancer {
	tb.Helper()
	backends := make([]maglev.Backend, n)
	for i := range backends {
		backends[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	lb, err := maglev.NewBalancer(backends, tableSize)
	if err != nil {
		tb.Fatal(err)
	}
	return lb
}

// track sends flows new flows through the balancer into the table.
func track(lb *maglev.Balancer, tbl *session.Table, flows int) {
	for i := 0; i < flows; i++ {
		tu := packet.FiveTuple{SrcIP: packet.IPv4(0x0b000000 + uint32(i)), DstIP: 0x0a630001, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoUDP}
		tbl.Track(tu, lb.Pick(tu).IP, 64)
	}
}

// TestWarmStateSetRestoreAllocatesNothing: once a first restore has sized
// the tables, restoring the same epoch of a balancer and a session table
// of 4096 flows again allocates nothing — each part reads its bytes
// straight out of the set's buffer.
func TestWarmStateSetRestoreAllocatesNothing(t *testing.T) {
	lb, tbl := newBalancer(t, 8, maglev.DefaultTableSize), session.NewTable()
	track(lb, tbl, 4096)
	set := domain.NewStateSet().Add("maglev", lb).Add("session", tbl)
	tok, err := set.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Restore(tok); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := set.Restore(tok); err != nil {
			t.Fatal(err)
		}
	})
	if tbl.Len() != 4096 || lb.ConnCount() != 4096 {
		t.Fatalf("restored %d flows and %d connections, want 4096 of each", tbl.Len(), lb.ConnCount())
	}
	if allocs != 0 {
		t.Fatalf("a warm restore made %.2f allocations, want 0", allocs)
	}
}

// spawnIdle spawns a domain over state that serves nothing and takes no
// epoch of its own, for EpochNow and RestoreNow.
func spawnIdle(t *testing.T, state domain.Stateful) *domain.Domain[int] {
	t.Helper()
	sup := domain.NewSupervisor(domain.Policy{CheckpointEvery: time.Hour}, sim.Wall{})
	t.Cleanup(sup.Close)
	d, err := domain.Spawn(sup, domain.Config[int]{
		Name:    "worker-0",
		Handler: func(linear.Owned[int]) error { return nil },
		State:   state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRAMEpochAllocatesNothing: a domain with no store captures the
// epochs of a worker of 4096 flows, several times the durable stream's
// 64 KiB chunk each, into its RAM sink, and once warm an epoch allocates
// nothing: the sink's two buffers rotate, each epoch written into the one
// the epoch before last committed, and so do the publication records. A
// restore reads the committed epoch in place and allocates nothing
// either. A commit into the sink is not a persist.
func TestRAMEpochAllocatesNothing(t *testing.T) {
	lb, tbl := newBalancer(t, 8, maglev.DefaultTableSize), session.NewTable()
	track(lb, tbl, 4096)
	d := spawnIdle(t, domain.NewStateSet().Add("maglev", lb).Add("session", tbl))
	epoch := func() {
		if err := d.EpochNow(); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	epoch()
	open, _ := d.SinkBuffers()
	epoch()
	if _, committed := d.SinkBuffers(); &committed[:1][0] != &open[:1][0] {
		t.Fatal("the epoch was not written into the sink's open buffer")
	}
	if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
		t.Fatalf("a warm RAM epoch allocates %.1f objects, want 0", allocs)
	}
	if _, committed := d.SinkBuffers(); len(committed) < 3*64<<10 {
		t.Fatalf("a %d-byte epoch: want one of at least three 64 KiB chunks", len(committed))
	}
	restore := func() {
		if err := d.RestoreNow(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, restore); allocs != 0 {
		t.Fatalf("a restore from the sink allocates %.1f objects, want 0", allocs)
	}
	sn := d.Snapshot()
	if sn.Checkpoints < 53 || sn.Restores < 21 || sn.CheckpointFailures != 0 || sn.Persisted != 0 || sn.PersistFailures != 0 {
		t.Fatalf("snapshot %+v: every epoch and restore should count, and none as a persist", sn)
	}
}

// fuzzSet is a small StateSet of every production part, with its parts
// in reach.
type fuzzSet struct {
	set *domain.StateSet
	fw  *firewall.Stateful
	lb  *maglev.Balancer
	tbl *session.Table
}

func newFuzzSet(tb testing.TB) *fuzzSet {
	tb.Helper()
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 0, 0, 0), 8, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		tb.Fatal(err)
	}
	fw, err := firewall.NewStateful(db)
	if err != nil {
		tb.Fatal(err)
	}
	s := &fuzzSet{fw: fw, lb: newBalancer(tb, 3, 251), tbl: session.NewTable()}
	track(s.lb, s.tbl, 16)
	s.set = domain.NewStateSet().Add("firewall", s.fw).Add("maglev", s.lb).Add("session", s.tbl)
	return s
}

// FuzzStateSetDecode: hostile bytes reach StateSet.DecodeToken from a
// store's record at boot. DecodeToken must not panic; what it accepts,
// Restore applies without error (each part's CheckCheckpoint accepts
// exactly what its Restore does); what it rejects leaves the live state
// as it was. The seeds are a real epoch and cuts of it.
func FuzzStateSetDecode(f *testing.F) {
	seed := newFuzzSet(f)
	tok, err := seed.set.Checkpoint(nil)
	if err != nil {
		f.Fatal(err)
	}
	wire, err := seed.set.EncodeToken(tok)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(wire))
	for _, cut := range []int{0, 3, 4, 8, len(wire) / 2, len(wire) - 1} {
		f.Add(bytes.Clone(wire[:cut]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newFuzzSet(t)
		db, flows, conns := s.fw.DB(), s.tbl.Entries(), s.lb.ConnCount()
		hits, misses := s.lb.Stats()
		tok, err := s.set.DecodeToken(data)
		if err == nil {
			if err := s.set.Restore(tok); err != nil {
				t.Fatalf("DecodeToken accepted %d bytes that Restore rejects: %v", len(data), err)
			}
			return
		}
		h, m := s.lb.Stats()
		if s.fw.DB() != db || !maps.Equal(s.tbl.Entries(), flows) || s.lb.ConnCount() != conns || h != hits || m != misses {
			t.Fatalf("a rejected token (%v) changed the live state", err)
		}
	})
}
