// Kill -9 recovery tier: the acceptance run for durable checkpoint
// state. A child process runs a supervised 2-worker pipeline over live
// loopback traffic with Policy.Persist pointed at an on-disk Store,
// converges on a known flow set, and is then killed with SIGKILL — no
// deferred Close, no flush, whatever the WAL's group commit made
// durable is all that survives. The parent reopens the same state
// directory, spawns fresh domains under the same worker names, and
// asserts the boot restore rebuilds the exact fault-free oracle with
// zero cold starts.
package statestore_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/statestore"
)

const (
	recoveryChildEnv = "STATESTORE_RECOVERY_CHILD"
	recoveryDirEnv   = "STATESTORE_RECOVERY_DIR"
	recoveryWorkers  = 2
	recoveryFlows    = 96
)

func recoveryBackends() []maglev.Backend {
	return []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
}

func recoveryRuleDB(t testing.TB) *firewall.DB {
	t.Helper()
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	return db
}

// recoveryOracle replays one packet per flow through a fresh, fault-free
// pipeline — the ground truth the restored tables must equal.
func recoveryOracle(t *testing.T) map[uint64]packet.IPv4 {
	t.Helper()
	lb, err := maglev.NewBalancer(recoveryBackends(), maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	table := session.NewTable()
	base := dpdk.DefaultSpec()
	var pkts []*packet.Packet
	for i := 0; i < recoveryFlows; i++ {
		spec := base
		spec.Tuple.SrcIP += packet.IPv4(i)
		spec.Tuple.SrcPort += uint16(i % 50000)
		frame, err := packet.Build(nil, spec)
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, &packet.Packet{Data: frame})
	}
	batch := &netbricks.Batch{Pkts: pkts}
	for _, op := range []netbricks.Operator{
		netbricks.Parse{}, firewall.Operator{DB: recoveryRuleDB(t)},
		maglev.Operator{LB: lb}, session.Operator{T: table},
	} {
		if err := op.ProcessBatch(batch); err != nil {
			t.Fatalf("oracle %s: %v", op.Name(), err)
		}
	}
	if len(batch.Dropped) != 0 {
		t.Fatalf("oracle replay dropped %d packets", len(batch.Dropped))
	}
	return table.Entries()
}

// recoveryServeChild is the process that gets killed: a supervised
// pipeline persisting every checkpoint epoch to the state directory.
// It prints "ADDR <addr>" once and then "STAT flows=<n> p=<c0>,<c1>"
// lines until SIGKILL arrives.
func recoveryServeChild(t *testing.T) {
	dir := os.Getenv(recoveryDirEnv)
	store, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncGroup})
	if err != nil {
		t.Fatalf("child: open store: %v", err)
	}
	port, err := netport.Open(netport.Config{
		Listen:   "127.0.0.1:0",
		Queues:   recoveryWorkers,
		RingSize: 256,
		PollWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("child: open port: %v", err)
	}
	db := recoveryRuleDB(t)
	tables := make([]*session.Table, recoveryWorkers)
	balancers := make([]*maglev.Balancer, recoveryWorkers)
	for w := range tables {
		tables[w] = session.NewTable()
		balancers[w], err = maglev.NewBalancer(recoveryBackends(), maglev.DefaultTableSize)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: recoveryWorkers, BatchSize: 8,
		Supervise: true,
		NewDirect: func(w int) *netbricks.Pipeline {
			return netbricks.NewPipeline(
				netbricks.Parse{}, firewall.Operator{DB: db},
				maglev.Operator{LB: balancers[w]}, session.Operator{T: tables[w]},
			)
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
			CheckpointEvery: 2 * time.Millisecond,
			Persist:         store,
		},
	}
	go r.Run(1 << 30)
	fmt.Printf("ADDR %s\n", port.Addr())
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) { // SIGKILL is the expected exit
		union := make(map[uint64]bool)
		for _, tbl := range tables {
			for h := range tbl.Entries() {
				union[h] = true
			}
		}
		persisted := make([]string, 0, recoveryWorkers)
		for _, sn := range r.DomainSnapshots() {
			persisted = append(persisted, fmt.Sprintf("%d", sn.Persisted))
		}
		fmt.Printf("STAT flows=%d p=%s\n", len(union), strings.Join(persisted, ","))
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("child: never killed")
}

// TestRecoveryKill9 is the parent driver (and, re-exec'd with the env
// var set, the victim child).
func TestRecoveryKill9(t *testing.T) {
	if os.Getenv(recoveryChildEnv) == "serve" {
		recoveryServeChild(t)
		return
	}
	if testing.Short() {
		t.Skip("kill -9 recovery tier skipped in -short")
	}
	dir := t.TempDir()
	oracle := recoveryOracle(t)

	cmd := exec.Command(os.Args[0], "-test.run=TestRecoveryKill9$")
	cmd.Env = append(os.Environ(),
		recoveryChildEnv+"=serve",
		recoveryDirEnv+"="+dir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// Drive the child with the oracle's flow set until the tables hold
	// every flow, then wait for two more persisted epochs per worker:
	// the second one necessarily started after convergence, so the last
	// durable epoch on every worker contains its complete share.
	var genStop chan struct{}
	genDone := make(chan error, 1)
	scanner := bufio.NewScanner(stdout)
	var baseline []uint64
	deadline := time.Now().Add(60 * time.Second)
	for scanner.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the child to converge and persist")
		}
		line := scanner.Text()
		if addr, ok := strings.CutPrefix(line, "ADDR "); ok {
			genStop = make(chan struct{})
			gen := &netport.Pktgen{
				Target: addr,
				Base:   dpdk.DefaultSpec(),
				Flows:  recoveryFlows,
				PPS:    20000,
			}
			go func() {
				_, err := gen.Run(genStop)
				genDone <- err
			}()
			continue
		}
		var flows int
		var pStr string
		if _, err := fmt.Sscanf(line, "STAT flows=%d p=%s", &flows, &pStr); err != nil {
			continue
		}
		persisted := make([]uint64, 0, recoveryWorkers)
		for _, s := range strings.Split(pStr, ",") {
			var v uint64
			fmt.Sscanf(s, "%d", &v)
			persisted = append(persisted, v)
		}
		if len(persisted) < recoveryWorkers {
			continue
		}
		if flows < len(oracle) {
			continue
		}
		if baseline == nil {
			baseline = append([]uint64(nil), persisted...)
			continue
		}
		ready := true
		for w := 0; w < recoveryWorkers; w++ {
			if persisted[w] < baseline[w]+2 {
				ready = false
			}
		}
		if ready {
			break
		}
	}
	if baseline == nil {
		t.Fatalf("child exited before converging (scanner err: %v)", scanner.Err())
	}

	// The hard crash: SIGKILL, no cleanup path runs in the child.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	cmd.Wait()
	close(genStop)
	<-genDone

	// Recovery: reopen the state directory cold and spawn fresh domains
	// under the same worker names. Boot restore must rebuild the exact
	// oracle — no traffic is flowing anymore, so anything missing here
	// is durably lost.
	store, err := statestore.Open(statestore.Config{Dir: dir, Fsync: statestore.FsyncGroup})
	if err != nil {
		t.Fatalf("reopen store after kill -9: %v", err)
	}
	defer store.Close()
	sup := domain.NewSupervisor(domain.Policy{
		Backoff: time.Millisecond, MaxRestarts: -1,
		CheckpointEvery: time.Hour,
		Persist:         store,
	}, sim.Wall{})
	defer sup.Close()
	got := make(map[uint64]packet.IPv4)
	var restores, coldStarts uint64
	for w := 0; w < recoveryWorkers; w++ {
		tbl := session.NewTable()
		lb, err := maglev.NewBalancer(recoveryBackends(), maglev.DefaultTableSize)
		if err != nil {
			t.Fatal(err)
		}
		d, err := domain.Spawn(sup, domain.Config[int]{
			Name:  fmt.Sprintf("worker-%d", w),
			State: domain.NewStateSet().Add("maglev", lb).Add("session", tbl),
			Handler: func(msg linear.Owned[int]) error {
				_, err := msg.Into()
				return err
			},
		})
		if err != nil {
			t.Fatalf("respawn worker-%d: %v", w, err)
		}
		sn := d.Snapshot()
		restores += sn.Restores
		coldStarts += sn.ColdStarts
		for h, ip := range tbl.Entries() {
			if prev, ok := got[h]; ok && prev != ip {
				t.Fatalf("flow %#x restored with backend %v and %v", h, prev, ip)
			}
			got[h] = ip
		}
	}
	if restores != recoveryWorkers || coldStarts != 0 {
		t.Fatalf("restores=%d coldStarts=%d, want %d/0", restores, coldStarts, recoveryWorkers)
	}
	missing, wrong, extra := 0, 0, 0
	for h, ip := range oracle {
		switch g, ok := got[h]; {
		case !ok:
			missing++
		case g != ip:
			wrong++
		}
	}
	for h := range got {
		if _, ok := oracle[h]; !ok {
			extra++
		}
	}
	if missing != 0 || wrong != 0 || extra != 0 {
		t.Fatalf("restored tables diverge from oracle: %d/%d missing, %d wrong, %d extra",
			missing, len(oracle), wrong, extra)
	}
	t.Logf("kill -9 recovery: %d flows restored exactly, %d restores, 0 cold starts", len(got), restores)
}
