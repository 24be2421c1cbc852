// Steady-state allocation budget for the full NF pipeline: the unit-test
// counterpart of the make-check alloc gate on the pipeline benches. The
// per-packet path (RX burst → parse → firewall → maglev → session → TX)
// must stay allocation-free once flows, pools, and scratch are warm;
// cold starts, first-sight flows and compactions are the only sanctioned
// allocators, and a checkpoint epoch whose predecessor was handed back
// allocates nothing either (see DESIGN.md "Memory discipline").
package repro

import (
	"runtime"
	"testing"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/statestore"
)

// allocBudgetPerPacket is the explicit steady-state budget. The path is
// designed to be exactly zero; the headroom only absorbs incidental
// runtime noise (a map rehash, a sync.Mutex inflation) so the test pins
// the floor without flaking.
const allocBudgetPerPacket = 0.05

func TestPipelineSteadyStateAllocBudget(t *testing.T) {
	const batchSize = 32
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: 512,
		QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 64, 1),
	})
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	lb, err := maglev.NewBalancer([]maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}, maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	tbl := session.NewTable()
	pipe := netbricks.NewPipeline(
		netbricks.Parse{},
		firewall.Operator{DB: db},
		maglev.Operator{LB: lb},
		session.Operator{T: tbl},
	)

	// One reusable batch and one reusable linear cell, the way the
	// runners drive the pipeline at steady state.
	batch := &netbricks.Batch{}
	var cell linear.Owned[*netbricks.Batch]
	haveCell := false
	buf := make([]*packet.Packet, batchSize)
	invoke := func() {
		got := port.RxBurstQueue(0, buf)
		if got == 0 {
			t.Fatal("port produced no packets")
		}
		batch.Pkts = append(batch.Pkts[:0], buf[:got]...)
		batch.Dropped = batch.Dropped[:0]
		var owned linear.Owned[*netbricks.Batch]
		if haveCell {
			owned = cell.MustRenew(batch)
		} else {
			owned = linear.New(batch)
		}
		out, err := pipe.Process(owned)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		final := out.MustInto()
		port.TxBurstQueue(0, final.Pkts)
		port.FreeQueue(0, final.Dropped)
		final.Pkts = final.Pkts[:0]
		final.Dropped = final.Dropped[:0]
		batch = final
		cell = out
		haveCell = true
	}

	for i := 0; i < 100; i++ { // warm every flow, map, pool, and scratch
		invoke()
	}
	perBatch := testing.AllocsPerRun(200, invoke)
	perPacket := perBatch / batchSize
	if perPacket > allocBudgetPerPacket {
		t.Fatalf("steady-state pipeline allocates %.4f objects/packet (%.1f/batch), budget %.2f",
			perPacket, perBatch, allocBudgetPerPacket)
	}
}

// warmStateSet is one worker's NF state with 4096 established flows.
func warmStateSet(t *testing.T) *domain.StateSet {
	t.Helper()
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	fw, err := firewall.NewStateful(db)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := maglev.NewBalancer([]maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}, maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	tbl := session.NewTable()
	tu := dpdk.DefaultSpec().Tuple
	for i := 0; i < 4096; i++ {
		tu.SrcIP++
		tbl.Track(tu, lb.Pick(tu).IP, 64)
	}
	return domain.NewStateSet().Add("firewall", fw).Add("maglev", lb).Add("session", tbl)
}

// TestEpochAllocBudget pins what one checkpoint epoch may allocate when
// nothing is ever handed back (the harness's final epoch, any caller that
// is not the domain runtime): the three NF states write their wire
// entries straight from live state into one buffer that is both the
// restore token and the WAL payload. Capture plus encode of a 4096-flow
// worker is a handful of objects (the buffer, the token holding it) and
// about one buffer's worth of bytes — it was one object per live flow,
// several times over, when the token was an object graph.
func TestEpochAllocBudget(t *testing.T) {
	set := warmStateSet(t)

	var payload []byte
	epoch := func() {
		tok, err := set.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		if payload, err = set.EncodeToken(tok); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, epoch); allocs > 8 {
		t.Fatalf("one epoch of a 4096-flow worker allocates %.1f objects, want <= 8", allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		epoch()
	}
	runtime.ReadMemStats(&after)
	perEpoch := int((after.TotalAlloc - before.TotalAlloc) / runs)
	if perEpoch > len(payload)+len(payload)/8 {
		t.Fatalf("one epoch allocates %d B for a %d B payload, want one right-sized buffer", perEpoch, len(payload))
	}
	if cap(payload) != len(payload) {
		t.Fatalf("epoch buffer has %d B of slack over its %d B (sized before capture, never regrown)", cap(payload)-len(payload), len(payload))
	}
}

// TestRecycledEpochAllocatesNothing is the other half: the loops the
// domain runtime runs allocate nothing once warm. With no store: capture,
// publish as the last good epoch, hand the epoch that was replaced back
// to the state (two buffers in rotation). With a statestore.Store:
// capture, PersistEpoch, hand that same token back — the store holds the
// epoch on disk, so one buffer serves every epoch. (The runtime's own
// publication records, small structs per epoch, are not part of these
// loops; BenchmarkChaosRestore prices the real thing.)
func TestRecycledEpochAllocatesNothing(t *testing.T) {
	t.Run("no store", func(t *testing.T) {
		set := warmStateSet(t)
		var last any
		epoch := func() {
			tok, err := set.Checkpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			old := last
			last = tok
			if old != nil {
				set.RecycleToken(old)
			}
		}
		epoch()
		epoch()
		if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
			t.Fatalf("a recycled epoch allocates %.1f objects, want 0", allocs)
		}
	})
	t.Run("store", func(t *testing.T) {
		store, err := statestore.Open(statestore.Config{Dir: t.TempDir(), Fsync: statestore.FsyncNone, CompactAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		set := warmStateSet(t)
		var seq uint64
		epoch := func() {
			tok, err := set.Checkpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := set.EncodeToken(tok)
			if err != nil {
				t.Fatal(err)
			}
			seq++
			if err := store.PersistEpoch("worker-0", seq, payload); err != nil {
				t.Fatal(err)
			}
			set.RecycleToken(tok)
		}
		epoch()
		if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
			t.Fatalf("a persisted, recycled epoch allocates %.1f objects, want 0", allocs)
		}
		if payload, gotSeq, ok, err := store.LastEpoch("worker-0"); err != nil || !ok || gotSeq != seq || len(payload) == 0 {
			t.Fatalf("store holds seq %d (ok=%v, err=%v), want %d", gotSeq, ok, err, seq)
		}
	})
}
