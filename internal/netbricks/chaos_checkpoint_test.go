// Checkpointed chaos tier: the stateful-recovery acceptance run for the
// §5→§3 integration. A supervised 4-worker parse → firewall → maglev →
// session pipeline runs over live loopback traffic while the injector
// crashes it thousands of times, with per-worker NF state (maglev
// connection tables + session tables) checkpointed every few
// milliseconds and restored on every restart.
//
// The discriminating structure is phased traffic. Flow set A is offered
// only at the start: it enters the session tables, gets checkpointed,
// and then its traffic stops. Flow set B keeps flowing while the
// injector crashes the workers hundreds more times. A restart that
// reset the tables (the pre-checkpoint behavior) would wipe set A with no
// traffic left to re-learn it from — so the final assertion, session
// tables == fault-free oracle over A ∪ B, passes only if every restart
// genuinely restored the last checkpoint.
package netbricks_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/domain/faultinject"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/leakcheck"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sfi"
	"repro/internal/statestore"
)

// ckptChaosBackends is the balancer config shared by every worker and
// the oracle, so backend choice is a pure function of the flow tuple.
func ckptChaosBackends() []maglev.Backend {
	return []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
}

// flowWalk enumerates the frames a Pktgen with this base/count emits:
// flow i adds i to SrcIP and i%50000 to SrcPort.
func flowWalk(t testing.TB, base packet.BuildSpec, flows int) [][]byte {
	t.Helper()
	frames := make([][]byte, flows)
	for i := 0; i < flows; i++ {
		spec := base
		spec.Tuple.SrcIP += packet.IPv4(i)
		spec.Tuple.SrcPort += uint16(i % 50000)
		frame, err := packet.Build(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	return frames
}

// oracleEntries replays one packet per flow through a fresh, fault-free
// pipeline (same rule DB and balancer config, no injector, no faults)
// and returns the resulting session identity — the ground truth the
// chaos run's tables must converge to.
func oracleEntries(t *testing.T, db *firewall.DB, frameSets ...[][]byte) map[uint64]packet.IPv4 {
	t.Helper()
	lb, err := maglev.NewBalancer(ckptChaosBackends(), maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	table := session.NewTable()
	var pkts []*packet.Packet
	for _, frames := range frameSets {
		for _, frame := range frames {
			pkts = append(pkts, &packet.Packet{Data: frame})
		}
	}
	batch := &netbricks.Batch{Pkts: pkts}
	for _, op := range []netbricks.Operator{
		netbricks.Parse{}, firewall.Operator{DB: db},
		maglev.Operator{LB: lb}, session.Operator{T: table},
	} {
		if err := op.ProcessBatch(batch); err != nil {
			t.Fatalf("oracle %s: %v", op.Name(), err)
		}
	}
	if len(batch.Dropped) != 0 {
		t.Fatalf("oracle replay dropped %d packets; the flow sets must all pass the firewall", len(batch.Dropped))
	}
	return table.Entries()
}

// unionEntries merges the per-worker session tables, failing on a
// conflict (the same flow claiming two backends would mean RSS affinity
// or restore isolation broke).
func unionEntries(t *testing.T, tables []*session.Table) map[uint64]packet.IPv4 {
	t.Helper()
	out := make(map[uint64]packet.IPv4)
	for w, tbl := range tables {
		for h, ip := range tbl.Entries() {
			if prev, ok := out[h]; ok && prev != ip {
				t.Fatalf("flow %#x tracked with backend %v on one worker and %v on worker %d", h, prev, ip, w)
			}
			out[h] = ip
		}
	}
	return out
}

// entriesEqual reports whether got matches want, with a diff summary.
func entriesEqual(got, want map[uint64]packet.IPv4) (bool, string) {
	missing, extra, wrong := 0, 0, 0
	for h, ip := range want {
		g, ok := got[h]
		switch {
		case !ok:
			missing++
		case g != ip:
			wrong++
		}
	}
	for h := range got {
		if _, ok := want[h]; !ok {
			extra++
		}
	}
	if missing == 0 && extra == 0 && wrong == 0 {
		return true, ""
	}
	return false, fmt.Sprintf("%d/%d flows missing, %d extra, %d wrong backend", missing, len(want), extra, wrong)
}

// ckptChaosResult is what a checkpointed chaos run hands back for
// variant-specific assertions.
type ckptChaosResult struct {
	sup    domain.Snapshot   // final merged supervisor ledger
	doms   []domain.Snapshot // per-worker snapshots after phase-2 convergence
	oracle map[uint64]packet.IPv4
}

// runCheckpointedChaos is the shared body of the checkpointed chaos
// tiers: a supervised 4-worker pipeline under phased traffic and fault
// injection, with per-worker NF state checkpointed every few
// milliseconds — and, when persist is non-nil, every completed epoch
// made durable through it.
func runCheckpointedChaos(t *testing.T, minFaults, phase2Min uint64, persist domain.Persister) ckptChaosResult {
	const (
		workers   = 4
		batchSize = 8
		flowsPer  = 64
	)

	port, err := netport.Open(netport.Config{
		Listen:   "127.0.0.1:0",
		Queues:   workers,
		RingSize: 256,
		PollWait: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "ckpt chaos netport", port.PoolAvailable)
	t.Cleanup(func() { port.Close() })

	// Disjoint flow sets: A is offered only before phase 2.
	specA := dpdk.DefaultSpec()
	specB := dpdk.DefaultSpec()
	specB.Tuple.SrcIP += 4096

	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	oracle := oracleEntries(t, db,
		flowWalk(t, specA, flowsPer), flowWalk(t, specB, flowsPer))

	tables := make([]*session.Table, workers)
	balancers := make([]*maglev.Balancer, workers)
	for w := 0; w < workers; w++ {
		tables[w] = session.NewTable()
		balancers[w], err = maglev.NewBalancer(ckptChaosBackends(), maglev.DefaultTableSize)
		if err != nil {
			t.Fatal(err)
		}
	}

	inj := faultinject.New(11) // probabilities start at zero: calm warm-up
	inj.StallFor = 3 * time.Millisecond
	var violations atomic.Uint64
	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: batchSize,
		Supervise:    true,
		MailboxDepth: 2,
		NewIsolated: func(w int) (*netbricks.Pipeline, error) {
			cur := &chaosStage{inj: inj, violations: &violations}
			stages := []netbricks.Operator{
				netbricks.Parse{},
				firewall.Operator{DB: db},
				cur,
				maglev.Operator{LB: balancers[w]},
				session.Operator{T: tables[w]},
			}
			factories := []func() netbricks.Operator{
				nil, nil,
				func() netbricks.Operator {
					cur.retired.Store(true)
					cur = &chaosStage{inj: inj, violations: &violations}
					return cur
				},
				nil, nil,
			}
			return netbricks.NewIsolatedPipeline(sfi.NewManager(), stages, factories)
		},
		NewState: func(w int) domain.Stateful {
			return domain.NewStateSet().
				Add("maglev", balancers[w]).
				Add("session", tables[w])
		},
		Policy: domain.Policy{
			Backoff:         20 * time.Microsecond,
			MaxBackoff:      time.Millisecond,
			MaxRestarts:     -1,
			HangAfter:       2 * time.Millisecond,
			CheckpointEvery: 5 * time.Millisecond,
			Persist:         persist,
		},
	}

	// One continuous supervised run; the driver below phases traffic and
	// injection around it while it is live. Segmenting into multiple Run
	// calls would not work: each Run boots fresh domains whose first
	// epoch is the Spawn seed, so a fault early in a later segment would
	// legally restore the tables as that segment found them, not as the
	// last epoch of the one before.
	runDone := make(chan error, 1)
	go func() {
		_, err := r.Run(1 << 30)
		runDone <- err
	}()

	startGen := func(spec packet.BuildSpec) (chan<- struct{}, <-chan error) {
		stop := make(chan struct{})
		done := make(chan error, 1)
		gen := &netport.Pktgen{
			Target: port.Addr().String(),
			Base:   spec,
			Flows:  flowsPer,
			PPS:    50000,
		}
		go func() {
			_, err := gen.Run(stop)
			done <- err
		}()
		return stop, done
	}
	stopA, doneA := startGen(specA)
	stopB, doneB := startGen(specB)

	waitUntil := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out (%v) waiting for %s", timeout, what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	mergedFaults := func() uint64 {
		sn, ok := r.SupervisorSnapshot()
		if !ok {
			return 0
		}
		return sn.Errors + sn.Crashes + sn.Hangs
	}
	// faultsSettled waits for the in-flight tail after injection turns
	// off: batches already past the injector can still fault for a
	// moment.
	faultsSettled := func() {
		t.Helper()
		waitUntil("faults to settle", 10*time.Second, func() bool {
			before := mergedFaults()
			time.Sleep(100 * time.Millisecond)
			return mergedFaults() == before
		})
	}
	perWorkerCkpts := func() []uint64 {
		sns := r.DomainSnapshots()
		out := make([]uint64, len(sns))
		for i, sn := range sns {
			out[i] = sn.Checkpoints
		}
		return out
	}

	// Warm-up (calm): every worker domain must complete at least one
	// periodic checkpoint epoch before the first injected fault, so the
	// phase-1 restores carry learned flows, not only Spawn's seed.
	waitUntil("a first checkpoint epoch on every worker", 10*time.Second, func() bool {
		ckpts := perWorkerCkpts()
		if len(ckpts) < workers {
			return false
		}
		for _, c := range ckpts {
			if c == 0 {
				return false
			}
		}
		return true
	})

	// Phase 1: faults over A ∪ B until the total-fault floor.
	inj.Set(0.30, 0.001)
	waitUntil(fmt.Sprintf("%d injected faults", minFaults), 120*time.Second, func() bool {
		return mergedFaults() >= minFaults
	})
	inj.Set(0, 0)
	faultsSettled()

	// Interlude (calm, both sets flowing): tables re-converge to the full
	// oracle, then every worker takes two more epochs — the second one
	// must have started after convergence, so the last published
	// checkpoint on every worker contains its complete A-share.
	waitUntil("tables to converge on the oracle", 30*time.Second, func() bool {
		ok, _ := entriesEqual(unionEntries(t, tables), oracle)
		return ok
	})
	base := perWorkerCkpts()
	waitUntil("two post-convergence epochs per worker", 10*time.Second, func() bool {
		for i, c := range perWorkerCkpts() {
			if c < base[i]+2 {
				return false
			}
		}
		return true
	})

	// Phase 2: set A's traffic stops for good; faults continue over
	// B-only traffic. From here on, set A exists nowhere but in the
	// checkpoints — every restart must restore it or the final equality
	// fails.
	snBefore, _ := r.SupervisorSnapshot()
	close(stopA)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	inj.Set(0.30, 0.001)
	waitUntil(fmt.Sprintf("%d phase-2 faults", phase2Min), 120*time.Second, func() bool {
		return mergedFaults() >= snBefore.Errors+snBefore.Crashes+snBefore.Hangs+phase2Min
	})
	inj.Set(0, 0)
	faultsSettled()

	// Calm tail: B re-learns its own losses; A must already be back.
	waitUntil("tables to match the oracle after phase 2", 30*time.Second, func() bool {
		ok, _ := entriesEqual(unionEntries(t, tables), oracle)
		return ok
	})
	// With persistence on, every worker must take (and persist) one more
	// epoch after final convergence, so the newest durable epoch holds
	// each worker's complete converged share.
	if persist != nil {
		base := perWorkerCkpts()
		waitUntil("two post-convergence epochs per worker", 10*time.Second, func() bool {
			for i, c := range perWorkerCkpts() {
				if c < base[i]+2 {
					return false
				}
			}
			return true
		})
	}
	doms := r.DomainSnapshots()

	// Wind down: stop the last generator, let the workers idle out.
	close(stopB)
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("supervised run did not end after traffic stopped")
	}

	// Final ledger.
	sn, ok := r.SupervisorSnapshot()
	if !ok {
		t.Fatal("no supervisor snapshot")
	}
	got := unionEntries(t, tables)
	if ok, diff := entriesEqual(got, oracle); !ok {
		t.Fatalf("final session tables diverge from the fault-free oracle: %s", diff)
	}
	faults := sn.Errors + sn.Crashes + sn.Hangs
	t.Logf("checkpointed chaos: faults=%d (errors=%d crashes=%d hangs=%d) restarts=%d checkpoints=%d (failed=%d) restores=%d coldstarts=%d persisted=%d flows=%d",
		faults, sn.Errors, sn.Crashes, sn.Hangs, sn.Restarts,
		sn.Checkpoints, sn.CheckpointFailures, sn.Restores, sn.ColdStarts, sn.Persisted, len(got))
	if faults < minFaults {
		t.Fatalf("run produced %d faults, want >= %d", faults, minFaults)
	}
	if sn.Restores < 1 {
		t.Fatal("no checkpoint restores recorded")
	}
	if sn.Restores <= snBefore.Restores {
		t.Fatalf("no phase-2 restores (%d before, %d after): set A's survival was never actually tested",
			snBefore.Restores, sn.Restores)
	}
	if sn.ColdStarts != 0 {
		t.Fatalf("%d cold starts; restarts must restore, not reset", sn.ColdStarts)
	}
	if sn.Restores < sn.Restarts {
		t.Fatalf("%d restores over %d restarts; every restart must restore", sn.Restores, sn.Restarts)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d invocations reached retired operator instances (stale-generation sfi refusal missing)", v)
	}
	return ckptChaosResult{sup: sn, doms: doms, oracle: oracle}
}

// TestChaosSupervisedPipelineCheckpointed is the stateful-recovery
// chaos acceptance run (name keeps it inside the test-e2e tier's
// TestChaosSupervisedPipeline regex).
func TestChaosSupervisedPipelineCheckpointed(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback chaos tier skipped in -short")
	}
	// 5000-fault floor: the ISSUE acceptance for the RAM-only tier.
	runCheckpointedChaos(t, 5000, 300, nil)
}

// TestChaosSupervisedPipelineCheckpointedDurable is the same run with
// every checkpoint epoch persisted to an on-disk statestore, plus a
// post-mortem: reopen the store cold and prove each worker's newest
// durable epoch decodes and restores to its exact converged share.
func TestChaosSupervisedPipelineCheckpointedDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback chaos tier skipped in -short")
	}
	dir := t.TempDir()
	store, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	res := runCheckpointedChaos(t, 1500, 150, store)
	if res.sup.Persisted == 0 {
		t.Fatal("no epochs persisted")
	}
	if res.sup.PersistFailures != 0 {
		t.Fatalf("%d persist failures during the chaos run", res.sup.PersistFailures)
	}
	for _, sn := range res.doms {
		if sn.Persisted == 0 {
			t.Fatalf("%s persisted no epochs", sn.Name)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Post-mortem rehydration: a cold reopen of the state directory must
	// hold, for every worker, a decodable newest epoch whose session
	// share matches the oracle — the on-disk artifact alone reconstructs
	// the fleet's converged state.
	store2, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncGroup})
	if err != nil {
		t.Fatalf("cold reopen: %v", err)
	}
	defer store2.Close()
	restored := make(map[uint64]packet.IPv4)
	for _, sn := range res.doms {
		payload, seq, ok, err := store2.LastEpoch(sn.Name)
		if err != nil || !ok {
			t.Fatalf("%s: no durable epoch after run (seq=%d, err=%v)", sn.Name, seq, err)
		}
		lb, err := maglev.NewBalancer(ckptChaosBackends(), maglev.DefaultTableSize)
		if err != nil {
			t.Fatal(err)
		}
		tbl := session.NewTable()
		set := domain.NewStateSet().Add("maglev", lb).Add("session", tbl)
		token, err := set.DecodeToken(payload)
		if err != nil {
			t.Fatalf("%s: decode durable epoch seq %d: %v", sn.Name, seq, err)
		}
		if err := set.Restore(token); err != nil {
			t.Fatalf("%s: restore durable epoch: %v", sn.Name, err)
		}
		for h, ip := range tbl.Entries() {
			if prev, ok := restored[h]; ok && prev != ip {
				t.Fatalf("flow %#x restored with backend %v and %v", h, prev, ip)
			}
			restored[h] = ip
		}
	}
	if ok, diff := entriesEqual(restored, res.oracle); !ok {
		t.Fatalf("rehydrated durable epochs diverge from the oracle: %s", diff)
	}
	t.Logf("durable chaos: %d epochs persisted, rehydrated %d flows exactly from disk", res.sup.Persisted, len(restored))
}
