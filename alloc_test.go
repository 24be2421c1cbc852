// Steady-state allocation budget for the full NF pipeline: the unit-test
// counterpart of the make-check alloc gate on the pipeline benches. The
// per-packet path (RX burst → parse → firewall → maglev → session → TX)
// must stay allocation-free once flows, pools, and scratch are warm;
// cold starts, first-sight flows and compactions are the only sanctioned
// allocators, and a warm checkpoint epoch allocates nothing either (see
// DESIGN.md "Memory discipline").
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/statestore"
)

// allocBudgetPerPacket is the explicit steady-state budget. The path is
// designed to be exactly zero; the headroom only absorbs incidental
// runtime noise (a map rehash, a sync.Mutex inflation) so the test pins
// the floor without flaking.
const allocBudgetPerPacket = 0.05

// TestPipelineSteadyStateAllocBudget runs the budget at DefaultSpec's
// frame, which the simulated NIC builds in an mbuf's small room, and at a
// 1400-byte one, which goes in the large room.
func TestPipelineSteadyStateAllocBudget(t *testing.T) {
	small := dpdk.DefaultSpec()
	large := small
	large.PayloadLen = 1400 - (packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen)
	for _, spec := range []packet.BuildSpec{small, large} {
		frame, err := spec.FrameLen()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("frame=%d", frame), func(t *testing.T) { steadyStateAllocBudget(t, spec) })
	}
}

func steadyStateAllocBudget(t *testing.T, spec packet.BuildSpec) {
	const batchSize = 32
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: 512,
		QueueGen: dpdk.NewRSSPartition(spec, 64, 1),
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
		owned := linear.New(batch)
		if haveCell {
			if owned, err = cell.Renew(batch); err != nil {
				t.Fatal(err)
			}
		}
		out, err := pipe.Process(owned)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		final, err := out.Into()
		if err != nil {
			t.Fatal(err)
		}
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
	// The allocator rounds a buffer this large up to whole 8 KiB pages.
	if perEpoch > cap(payload)+8<<10+1024 {
		t.Fatalf("one epoch allocates %d B for a %d B buffer, want that buffer and next to nothing else", perEpoch, cap(payload))
	}
	if cap(payload) != len(payload)+len(payload)/8 {
		t.Fatalf("epoch buffer has %d B of headroom over its %d B, want an eighth (sized before capture, never regrown)", cap(payload)-len(payload), len(payload))
	}
}

// TestPersistEpochAllocatesNothing: appending a whole epoch to a
// statestore.Store — the buffer path's persist, taken by a state that
// does not stream and by the epoch after a failed stream — allocates
// nothing once warm: the store borrows the payload and its frame header
// comes from a pool. A StateSet domain's epoch streams instead
// (TestLiveEpochAllocBudget).
func TestPersistEpochAllocatesNothing(t *testing.T) {
	store, err := statestore.Open(statestore.Config{Dir: t.TempDir(), Fsync: statestore.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	set := warmStateSet(t)
	tok, err := set.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := set.EncodeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	epoch := func() {
		seq++
		if err := store.PersistEpoch("worker-0", seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	epoch()
	if allocs := testing.AllocsPerRun(50, epoch); allocs != 0 {
		t.Fatalf("a persisted epoch allocates %.1f objects, want 0", allocs)
	}
	if got, gotSeq, ok, err := store.LastEpoch("worker-0"); err != nil || !ok || gotSeq != seq || len(got) != len(payload) {
		t.Fatalf("store holds seq %d (ok=%v, err=%v), want %d", gotSeq, ok, err, seq)
	}
	// The epochs stay under the adaptive compaction threshold, so what
	// was measured is the append alone.
	if c := store.StatsSnapshot().Compactions; c != 0 {
		t.Fatalf("the store compacted %d times during %d epochs, want 0", c, seq)
	}
}

// TestFaultAllocBudget pins what a fault and its restart allocate once a
// domain has faulted before: chaosRunner with a panic on every 2000th
// batch of each worker (mem-chaos's rate), 100 faults over two Runs,
// against its fault-free twin (perFault). The errors format lazily, the
// sfi table is cleared in place, a domain's context is made once, each
// domain keeps one ticker and one backoff timer, the lost
// batch's storage goes back to the worker's free list and the session
// table's backend boxes are reused, so what is left is the three error
// values, the new stage instance's box and table entry (and the operator
// this setup's fault-stage factory boxes), its client's fresh binding,
// the next generation's quit channel and goroutine and the lost batch's
// fresh cell: ≈ 10 objects and ≈ 0.5 KB. Before that change a fault read
// 48 objects and ≈ 2.8 KB here.
func TestFaultAllocBudget(t *testing.T) {
	const (
		faultEvery = 2000
		// A whole number of fault periods: the fault stage's count carries
		// across Runs, so each Run faults first faultEvery batches in,
		// well past its first 10ms epoch: every restore is of a learned
		// epoch, not of Spawn's seed.
		batchesPerWorker = 25 * faultEvery
		runs             = 2
		maxAllocs        = 20
		maxBytes         = 1024
	)
	twin := twinCost(t, runs, batchesPerWorker)
	faulty := chaosRuns(t, chaosRunner(t, faultEvery, batchesPerWorker), runs, batchesPerWorker)
	if faulty.faults < 100 || faulty.restores != faulty.faults {
		t.Fatalf("%d faults, %d restores; want at least 100 faults, each restored", faulty.faults, faulty.restores)
	}
	allocs, bytes := perFault(faulty, twin)
	t.Logf("%d faults: %.1f objects and %.0f B per fault", faulty.faults, allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("a fault and its restart allocate %.1f objects and %.0f B, want at most %d and %d B",
			allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestRecycledEpochAllocatesNothing: a domain with no store recycles its
// epoch buffers. It captures each epoch into its RAM sink, whose two
// buffers rotate, so a warm epoch of a 4096-flow worker allocates no
// bytes, where the buffer path allocates the whole epoch and an eighth of
// headroom every time (TestEpochAllocBudget). The loop is the runtime's
// own: a live, idle domain with a 1 ms epoch, on one P as in
// TestLiveEpochAllocBudget, which counts its objects. internal/domain's
// TestRAMEpochAllocatesNothing runs an epoch on the test's goroutine and
// pins it at exactly 0.
func TestRecycledEpochAllocatesNothing(t *testing.T) {
	t.Run("no store", func(t *testing.T) {
		const epochs = 200
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		set := warmStateSet(t)
		tok, err := set.Checkpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := set.EncodeToken(tok)
		if err != nil {
			t.Fatal(err)
		}
		sup := domain.NewSupervisor(domain.Policy{CheckpointEvery: time.Millisecond}, sim.Wall{})
		defer sup.Close()
		d, err := domain.Spawn(sup, domain.Config[int]{
			Name:    "worker-0",
			Handler: func(linear.Owned[int]) error { return nil },
			State:   set,
		})
		if err != nil {
			t.Fatal(err)
		}
		taken := func() uint64 { return d.Snapshot().Checkpoints }
		waitEpochs := func(n uint64) {
			for deadline := time.Now().Add(30 * time.Second); taken() < n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d epochs after 30s, want %d", taken(), n)
				}
			}
		}
		waitEpochs(4) // both buffers made
		var before, after runtime.MemStats
		from := taken()
		runtime.ReadMemStats(&before)
		waitEpochs(from + epochs)
		runtime.ReadMemStats(&after)
		n := taken() - from
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%d epochs: %.1f bytes per epoch of %d", n, bytes, len(wire))
		// One 64-byte object per epoch would be 64: a buffer is thousands.
		if bytes > 64 {
			t.Fatalf("a live RAM epoch allocates %.1f bytes, want <= 64 (an epoch is %d)", bytes, len(wire))
		}
		if sn := d.Snapshot(); sn.CheckpointFailures != 0 || sn.Persisted != 0 {
			t.Fatalf("snapshot %+v: every epoch should succeed, and none is a persist", sn)
		}
	})
}

// TestLiveEpochAllocBudget runs at least 100 checkpoint epochs through a
// live, idle Domain — the ticker wakes it, it captures into its RAM sink
// or its store and publishes — and pins what an epoch allocates once
// warm: the sink's buffers rotate (TestRecycledEpochAllocatesNothing),
// and so do the publication records that name the last good epoch, two
// of them. With a statestore.Store the record of the epoch just
// persisted turns into the reference to the store's copy in place.
// Before that change an epoch allocated one record, two with a store.
//
// The count is the process's, so the subtests run on one P. On several,
// the goroutines parked in Mailbox.recv's select wake on another P than
// they parked on, each P's sudog cache drains into another's, and the
// runtime allocates fresh sudogs: 0.06-0.14 objects per epoch run alone,
// none of them the epoch's.
func TestLiveEpochAllocBudget(t *testing.T) {
	const epochs = 200
	for _, durable := range []bool{false, true} {
		name := "no store"
		if durable {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			pol := domain.Policy{CheckpointEvery: time.Millisecond}
			if durable {
				store, err := statestore.Open(statestore.Config{Dir: t.TempDir(), Fsync: statestore.FsyncNone})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				// The adaptive compaction threshold is 64 generations of
				// the live state: another domain's 1 MiB epoch lifts it
				// above what these ~200 epochs write, so what is measured
				// is the epoch path alone, as the deferred check confirms.
				if err := store.PersistEpoch("ballast", 1, make([]byte, 1<<20)); err != nil {
					t.Fatal(err)
				}
				pol.Persist = store
				defer func() {
					if c := store.StatsSnapshot().Compactions; c != 0 {
						t.Errorf("the store compacted %d times, want 0", c)
					}
				}()
			}
			sup := domain.NewSupervisor(pol, sim.Wall{})
			defer sup.Close()
			d, err := domain.Spawn(sup, domain.Config[int]{
				Name:    "worker-0",
				Handler: func(linear.Owned[int]) error { return nil },
				State:   warmStateSet(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			taken := func() uint64 { return d.Snapshot().Checkpoints }
			waitEpochs := func(n uint64) {
				for deadline := time.Now().Add(30 * time.Second); taken() < n; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d epochs after 30s, want %d", taken(), n)
					}
				}
			}
			waitEpochs(4) // two buffers and two records in rotation
			var before, after runtime.MemStats
			from := taken()
			runtime.ReadMemStats(&before)
			waitEpochs(from + epochs)
			runtime.ReadMemStats(&after)
			n := taken() - from
			per := float64(after.Mallocs-before.Mallocs) / float64(n)
			t.Logf("%d epochs: %.3f objects per epoch", n, per)
			if per > 0.05 {
				t.Fatalf("a live epoch allocates %.3f objects, want <= 0.05", per)
			}
			if sn := d.Snapshot(); sn.CheckpointFailures != 0 || (durable && sn.Persisted < from+epochs) {
				t.Fatalf("snapshot %+v: every epoch should succeed and, with a store, persist", sn)
			}
		})
	}
}
