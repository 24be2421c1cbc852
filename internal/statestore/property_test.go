package statestore_test

// Property/state-machine test: random sequences of {mutate, checkpoint,
// crash+restart, compact, tear} driven against a real session.Table
// persisting through a real Store, compared to an in-memory oracle
// after every restart. Two properties:
//
//   - Epoch durability: after any crash, the restored table equals the
//     oracle's image at the last persisted checkpoint — exactly, never a
//     partial epoch, regardless of interleaved compactions and garbage
//     appended to the WAL.
//   - Cache-over-index: with a small RAM cap, every flow that was either
//     durable in an epoch or evicted to the flow index is found by
//     Lookup with its correct backend after a crash; lookups never
//     return a wrong backend.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/statestore"
)

// propFlow derives flow i's deterministic identity: tuple and backend.
func propFlow(i int) (packet.FiveTuple, packet.IPv4) {
	tu := packet.FiveTuple{
		SrcIP:   packet.IPv4(0x0a000000 + uint32(i)),
		DstIP:   packet.IPv4(0x0a630000 + uint32(i%7)),
		SrcPort: uint16(1024 + i%50000),
		DstPort: 80,
		Proto:   17,
	}
	return tu, packet.IPv4(0xc0a80001 + uint32(i%3))
}

func entriesEqualProp(t *testing.T, got map[uint64]packet.IPv4, want map[uint64]packet.IPv4, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d flows, want %d", what, len(got), len(want))
	}
	for h, ip := range want {
		if got[h] != ip {
			t.Fatalf("%s: flow %x → %v, want %v", what, h, got[h], ip)
		}
	}
}

func TestPropertyEpochDurability(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			open := func() *statestore.Store {
				s, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncNone})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				s.SetCompactAfter(-1)
				return s
			}
			store := open()
			defer func() { store.Close() }()
			tbl := session.NewTable()

			// Oracle: the live flow set and the image at the last durable
			// checkpoint.
			live := map[uint64]packet.IPv4{}
			durable := map[uint64]packet.IPv4{}
			seq := uint64(0)

			for step := 0; step < 120; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // mutate: track a handful of flows
					for k := 0; k < 1+rng.Intn(20); k++ {
						i := rng.Intn(200)
						tu, ip := propFlow(i)
						tbl.Track(tu, ip, 100)
						live[tu.Hash()] = ip
					}
				case op < 6: // checkpoint + persist
					payload, err := tbl.AppendCheckpoint(nil)
					if err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					seq++
					if err := store.PersistEpoch("t", seq, payload); err != nil {
						t.Fatalf("persist: %v", err)
					}
					durable = map[uint64]packet.IPv4{}
					for h, ip := range live {
						durable[h] = ip
					}
				case op < 7: // compact
					if err := store.Compact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
				case op < 8: // tear: garbage lands on the WAL tail
					store.Close()
					f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					junk := make([]byte, 1+rng.Intn(40))
					rng.Read(junk)
					f.Write(junk)
					f.Close()
					store = open()
				default: // crash + restart
					store.Close()
					store = open()
					tbl = session.NewTable()
					payload, gotSeq, ok, err := store.LastEpoch("t")
					if err != nil {
						t.Fatalf("LastEpoch: %v", err)
					}
					if ok {
						if gotSeq != seq {
							t.Fatalf("recovered seq %d, want %d", gotSeq, seq)
						}
						if err := tbl.Restore(payload); err != nil {
							t.Fatalf("restore: %v", err)
						}
					} else if seq != 0 {
						t.Fatalf("durable epoch %d lost", seq)
					}
					live = map[uint64]packet.IPv4{}
					for h, ip := range durable {
						live[h] = ip
					}
					entriesEqualProp(t, tbl.Entries(), durable, fmt.Sprintf("step %d restart", step))
				}
			}
		})
	}
}

// evictionSpy wraps a Spill and records every hash ever evicted, so the
// oracle knows exactly which flows must be durable in the index.
type evictionSpy struct {
	inner   session.Spill
	evicted map[uint64]packet.IPv4
}

func (s *evictionSpy) SpillFlows(recs []session.SpillRecord) error {
	if err := s.inner.SpillFlows(recs); err != nil {
		return err
	}
	for _, r := range recs {
		s.evicted[r.Hash] = r.Backend
	}
	return nil
}

func (s *evictionSpy) LookupFlow(hash uint64) (session.SpillRecord, bool, error) {
	return s.inner.LookupFlow(hash)
}

func (s *evictionSpy) FlowCount() (int, error) { return s.inner.FlowCount() }

func TestPropertyCacheOverIndex(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			const ramCap = 48
			evicted := map[uint64]packet.IPv4{}
			var fi *statestore.FlowIndex
			open := func() (*statestore.Store, *session.Table) {
				s, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncNone})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				s.SetFlowCompactAfter(64)
				fi, err = s.FlowIndex("t")
				if err != nil {
					t.Fatalf("FlowIndex: %v", err)
				}
				tbl := session.NewTable()
				tbl.SetSpill(&evictionSpy{inner: fi, evicted: evicted}, ramCap)
				return s, tbl
			}
			store, tbl := open()
			defer func() { store.Close() }()

			tracked := map[uint64]packet.IPv4{}
			durable := map[uint64]packet.IPv4{}
			seq := uint64(0)

			check := func(what string) {
				t.Helper()
				// Everything durable (epoch image or evicted to the index)
				// must resolve to its true backend.
				for h, ip := range durable {
					got, ok := resolve(tbl, fi, h)
					if !ok || got != ip {
						t.Fatalf("%s: durable flow %x → %v,%v; want %v", what, h, got, ok, ip)
					}
				}
				for h, ip := range evicted {
					got, ok := resolve(tbl, fi, h)
					if !ok || got != ip {
						t.Fatalf("%s: evicted flow %x → %v,%v; want %v", what, h, got, ok, ip)
					}
				}
				// And nothing ever resolves wrongly.
				for h, ip := range tracked {
					if got, ok := resolve(tbl, fi, h); ok && got != ip {
						t.Fatalf("%s: flow %x → wrong backend %v, want %v", what, h, got, ip)
					}
				}
				if _, ok := resolve(tbl, fi, 0xfeedfacecafebeef); ok {
					t.Fatalf("%s: phantom flow found", what)
				}
			}

			for step := 0; step < 60; step++ {
				switch op := rng.Intn(10); {
				case op < 6: // track a burst — enough to force evictions
					for k := 0; k < 10+rng.Intn(30); k++ {
						i := rng.Intn(400)
						tu, ip := propFlow(i)
						tbl.Track(tu, ip, 100)
						tracked[tu.Hash()] = ip
					}
				case op < 8: // checkpoint + persist the RAM cache image
					payload, err := tbl.AppendCheckpoint(nil)
					if err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					seq++
					if err := store.PersistEpoch("t", seq, payload); err != nil {
						t.Fatalf("persist: %v", err)
					}
					durable = map[uint64]packet.IPv4{}
					for h, ip := range tbl.Entries() {
						durable[h] = ip
					}
				default: // crash + restart
					store.Close()
					store, tbl = open()
					payload, _, ok, err := store.LastEpoch("t")
					if err != nil {
						t.Fatalf("LastEpoch: %v", err)
					}
					if ok {
						if err := tbl.Restore(payload); err != nil {
							t.Fatalf("restore: %v", err)
						}
					}
					// Flows neither durable nor evicted died with the
					// process: forget them.
					for h := range tracked {
						if _, inEpoch := durable[h]; inEpoch {
							continue
						}
						if _, inIndex := evicted[h]; inIndex {
							continue
						}
						delete(tracked, h)
					}
					check(fmt.Sprintf("step %d restart", step))
				}
				if step%10 == 9 {
					check(fmt.Sprintf("step %d live", step))
				}
			}
			if len(evicted) == 0 {
				t.Fatal("property run never evicted a flow — cap too high to test anything")
			}
		})
	}
}
