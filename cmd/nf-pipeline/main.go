// Command nf-pipeline runs a realistic isolated network-function pipeline
// end to end: simulated DPDK port → parse → firewall → Maglev load
// balancer → session table, with every stage in its own protection
// domain, optional fault injection, and automatic recovery — the full §3
// scenario, with §5 checkpointed state recovery on top.
//
// Usage:
//
//	nf-pipeline                          # 10k batches of 32 packets
//	nf-pipeline -batches 1000 -size 64
//	nf-pipeline -inject 500              # panic the firewall on batch 500
//	nf-pipeline -direct                  # baseline without isolation
//	nf-pipeline -workers 4               # sharded: 4 workers, RSS steering
//	nf-pipeline -workers 4 -supervise    # workers as supervised domains
//	nf-pipeline -workers 4 -supervise -crashrate 0.05
//	                                     # chaos: 5% of batches panic
//	nf-pipeline -workers 4 -supervise -crashrate 0.05 -checkpoint-every 10ms
//	                                     # §5: restarted workers restore
//	                                     # their NF state from checkpoints
//	nf-pipeline -metrics-addr :9090 -supervise -crashrate 0.05
//	                                     # live /metrics + flight recorder
//
// Real traffic over loopback (two terminals):
//
//	nf-pipeline -listen 127.0.0.1:9000 -workers 4 -supervise
//	                                     # socket-backed port instead of the
//	                                     # simulated NIC; -egress to forward
//	nf-pipeline -listen 127.0.0.1:9000 -workers 4 -reuseport
//	                                     # SO_REUSEPORT: one receive socket
//	                                     # per worker, kernel fan-out
//	nf-pipeline -target 127.0.0.1:9000 -pps 100000 -duration 10s
//	                                     # pktgen: drive the listener
//	                                     # (-sockets spreads source ports so
//	                                     # a -reuseport listener fans out)
//
// Contradictory flag sets (e.g. -listen with -target, or
// -checkpoint-every without -supervise) are rejected up front with a
// usage error rather than letting one mode win silently.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/domain"
	"repro/internal/domain/faultinject"
	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sfi"
	"repro/internal/statestore"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// osExit is swappable so flag-validation tests can observe the exit.
var osExit = os.Exit

// faultyStage wraps an operator with §3-style fault injection: a
// deterministic one-shot panic (-inject) and/or a seeded probabilistic
// injector (-crashrate).
type faultyStage struct {
	inner   netbricks.Operator
	panicOn int
	seen    int
	inj     *faultinject.Injector
}

func (f *faultyStage) Name() string { return f.inner.Name() }

func (f *faultyStage) ProcessBatch(b *netbricks.Batch) error {
	f.seen++
	if f.panicOn != 0 && f.seen == f.panicOn {
		panic(fmt.Sprintf("injected %s fault on batch %d", f.inner.Name(), f.seen))
	}
	if f.inj != nil {
		f.inj.Point(f.inner.Name())
	}
	return f.inner.ProcessBatch(b)
}

// validateFlags rejects contradictory flag combinations up front, so the
// process exits with a usage error instead of silently letting one mode
// win. set holds the names of flags the user passed explicitly.
func validateFlags(set map[string]bool, supervise bool, checkpointEvery time.Duration, traceSample int, stateDir, fsync string) error {
	if set["target"] {
		// Pktgen mode: only pktgen knobs make sense alongside it.
		for _, name := range []string{
			"listen", "egress", "reuseport", "direct", "supervise", "inject",
			"crashrate", "checkpoint-every", "workers", "batches", "size",
			"metrics-addr", "stats-interval", "trace-sample", "state-dir", "fsync",
		} {
			if set[name] {
				return fmt.Errorf("-target (pktgen mode) conflicts with -%s", name)
			}
		}
		return nil
	}
	if set["state-dir"] {
		if checkpointEvery == 0 {
			return fmt.Errorf("-state-dir persists checkpoint epochs; it contradicts -checkpoint-every=0 (pass -checkpoint-every > 0)")
		}
		if stateDir == "" {
			return fmt.Errorf("-state-dir needs a directory path")
		}
		// Probe writability now: an unusable state directory is a usage
		// error at startup, not a persist failure minutes into a run.
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return fmt.Errorf("-state-dir %s is not usable: %v", stateDir, err)
		}
		probe, err := os.CreateTemp(stateDir, ".probe-*")
		if err != nil {
			return fmt.Errorf("-state-dir %s is not writable: %v", stateDir, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	if set["fsync"] {
		if !set["state-dir"] {
			return fmt.Errorf("-fsync selects the state-store durability mode; it needs -state-dir")
		}
		if _, err := statestore.ParseFsyncMode(fsync); err != nil {
			return err
		}
	}
	if set["egress"] && !set["listen"] {
		return fmt.Errorf("-egress forwards received traffic; it needs -listen")
	}
	if set["reuseport"] && !set["listen"] {
		return fmt.Errorf("-reuseport opens per-worker receive sockets; it needs -listen")
	}
	if set["sockets"] {
		return fmt.Errorf("-sockets spreads pktgen load over source sockets; it needs -target")
	}
	if checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0")
	}
	if checkpointEvery > 0 && !supervise {
		return fmt.Errorf("-checkpoint-every snapshots supervised worker domains; it needs -supervise")
	}
	if set["pps"] || set["count"] || set["duration"] {
		return fmt.Errorf("-pps/-count/-duration are pktgen knobs; they need -target")
	}
	if set["trace-sample"] {
		if !set["listen"] {
			return fmt.Errorf("-trace-sample arms traces at netport ingress; it needs -listen")
		}
		if traceSample < 1 {
			return fmt.Errorf("-trace-sample must be >= 1 (1 traces every packet)")
		}
		if traceSample&(traceSample-1) != 0 {
			return fmt.Errorf("-trace-sample must be a power of two (the sampler is a mask, not a modulus); got %d", traceSample)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nf-pipeline: ")
	var (
		batches   = flag.Int("batches", 10000, "number of batches to process")
		size      = flag.Int("size", 32, "packets per batch")
		inject    = flag.Int("inject", 0, "panic the firewall stage on this batch (0 = never)")
		direct    = flag.Bool("direct", false, "run without isolation (baseline)")
		flows     = flag.Int("flows", 4096, "distinct synthetic flows")
		workers   = flag.Int("workers", 1, "parallel pipeline workers (RSS-sharded when > 1)")
		supervise = flag.Bool("supervise", false, "run workers as supervised protection domains")
		crashrate = flag.Float64("crashrate", 0, "probability [0,1) that the firewall panics on a batch")

		metricsAddr   = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/flightrecorder on this address (e.g. :9090)")
		statsInterval = flag.Duration("stats-interval", 0, "log a JSON metrics snapshot at this interval (0 = off)")

		listen    = flag.String("listen", "", "receive real overlay traffic on this UDP address (socket-backed port instead of the simulated NIC)")
		egress    = flag.String("egress", "", "with -listen: forward transmitted frames to this UDP address (default: count and recycle)")
		reuseport = flag.Bool("reuseport", false, "with -listen: SO_REUSEPORT kernel fan-out — one receive socket per worker instead of the software distributor (Linux; falls back silently elsewhere)")

		target   = flag.String("target", "", "pktgen mode: send synthetic overlay traffic to this UDP address and exit")
		pps      = flag.Int("pps", 100000, "pktgen: offered load in packets per second (0 = unpaced)")
		count    = flag.Int("count", 0, "pktgen: datagrams to send (0 = send for -duration)")
		duration = flag.Duration("duration", 10*time.Second, "pktgen: how long to send when -count is 0")
		sockets  = flag.Int("sockets", 16, "pktgen: source sockets to spread flows over (REUSEPORT receivers need the source-port entropy)")

		checkpointEvery = flag.Duration("checkpoint-every", 0, "with -supervise: snapshot each worker's NF state at this epoch length; restarts restore the last good snapshot (0 = off)")

		stateDir  = flag.String("state-dir", "", "with -checkpoint-every: persist completed epochs to a WAL in this directory; a restart with the same directory restores the last durable epoch")
		fsyncMode = flag.String("fsync", "group", "with -state-dir: WAL durability mode — group (fsync once per commit wave), always (fsync every epoch), none (page cache only)")

		traceSample = flag.Int("trace-sample", 0, "with -listen: arm a sampled packet trace on one in N ingress frames per receive loop (power of two; 0 = off); completed traces serve at /debug/traces")
	)
	flag.Parse()
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if err := validateFlags(setFlags, *supervise, *checkpointEvery, *traceSample, *stateDir, *fsyncMode); err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "nf-pipeline: %v\n\n", err)
		flag.Usage()
		osExit(2)
	}
	if *target != "" {
		runPktgen(*target, *pps, *count, *duration, *flows, *sockets, *size)
		return
	}
	if *workers < 1 {
		log.Fatal("-workers must be >= 1")
	}
	if *crashrate < 0 || *crashrate >= 1 {
		log.Fatal("-crashrate must be in [0,1)")
	}
	if *crashrate > 0 && *direct {
		log.Fatal("-crashrate needs an isolated pipeline to recover; drop -direct")
	}
	var inj *faultinject.Injector
	if *crashrate > 0 {
		inj = faultinject.New(42)
		inj.PanicProb = *crashrate
	}

	// Telemetry: one shared registry for every layer's counters and a
	// flight recorder capturing the last 256 domain events. Both are
	// nil-safe, but the pipeline always runs with them on — the record
	// path is pure atomics, so there is nothing to turn off.
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	var store *statestore.Store
	if *stateDir != "" {
		mode, merr := statestore.ParseFsyncMode(*fsyncMode)
		if merr != nil {
			log.Fatal(merr)
		}
		var serr error
		store, serr = statestore.Open(statestore.Config{Dir: *stateDir, Fsync: mode})
		if serr != nil {
			log.Fatal(serr)
		}
		defer store.Close()
		store.RegisterMetrics(reg, nil)
		log.Printf("durable state: %s (fsync=%s), %d domains with a prior epoch", *stateDir, mode, store.EpochCount())
	}
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{SampleEvery: *traceSample, Ring: 256, Recorder: rec})
		tracer.RegisterMetrics(reg, nil)
		log.Printf("tracing one in %d ingress frames per receive loop", tracer.SampleEvery())
	}
	if *metricsAddr != "" {
		// Sane default profile rates for the admin surface: mutex events
		// sampled 1-in-100, block events at 1ms granularity — cheap enough
		// to leave on, detailed enough that /debug/pprof/{mutex,block}
		// return something useful. CPU and heap profiles need no arming.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
		serveAdmin(*metricsAddr, reg, rec, tracer)
		log.Printf("serving http://%s/metrics, /debug/flightrecorder, /debug/traces, /debug/alloc, /debug/pprof/", *metricsAddr)
	}
	if *statsInterval > 0 {
		go func() {
			t := time.NewTicker(*statsInterval)
			defer t.Stop()
			for range t.C {
				var buf bytes.Buffer
				if err := reg.WriteJSON(&buf); err == nil {
					log.Printf("stats: %s", bytes.TrimSpace(buf.Bytes()))
				}
			}
		}()
	}

	// Substrate: traffic source, firewall rules, Maglev backends. With
	// multiple workers the port runs in steered mode: one shared flow
	// generator fanned out to per-queue rings by the RSS hash. The pool
	// must cover every ring, every per-queue cache, and in-flight batches,
	// or the distributor starves queues whose rings sit full while the
	// pool is empty (the classic DPDK pool-vs-lcore-cache sizing caveat).
	ringSize := 4 * *size
	if ringSize < 128 {
		ringSize = 128
	}
	cacheSize := *size
	var port netbricks.BurstPort
	var simPort *dpdk.Port
	var sockPort *netport.Port
	if *listen != "" {
		var nerr error
		sockPort, nerr = netport.Open(netport.Config{
			Listen:    *listen,
			Queues:    *workers,
			RingSize:  ringSize,
			BatchSize: *size, // one recvmmsg fills one worker batch
			CacheSize: cacheSize,
			ReusePort: *reuseport,
			// A generous poll grace: the run ends 8 idle polls (~800ms)
			// after the wire goes quiet, not mid-burst.
			PollWait: 100 * time.Millisecond,
			TxTarget: *egress,
			Recorder: rec,
			Tracer:   tracer,
		})
		if nerr != nil {
			log.Fatal(nerr)
		}
		defer sockPort.Close()
		sockPort.RegisterMetrics(reg, telemetry.Labels{"port": "net0"})
		fanout := "software distributor"
		if sockPort.ReusePortActive() {
			fanout = "SO_REUSEPORT kernel fan-out"
		}
		log.Printf("listening for overlay traffic on %s (%d rx queues, %s)", sockPort.Addr(), *workers, fanout)
		port = sockPort
	} else {
		simPort = dpdk.NewPort(dpdk.Config{
			PoolSize:   *workers*(ringSize+cacheSize+*size) + 256,
			RxQueues:   *workers,
			RxRingSize: ringSize,
			CacheSize:  cacheSize,
			Gen:        dpdk.NewZipfFlows(dpdk.DefaultSpec(), *flows, 1.3, 42),
		})
		simPort.RegisterMetrics(reg, telemetry.Labels{"port": "0"})
		port = simPort
	}
	db := firewall.NewDB(firewall.Deny)
	// Admit the synthetic service prefix; everything else drops.
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow, Comment: "service"}); err != nil {
		log.Fatal(err)
	}
	backends := make([]maglev.Backend, 8)
	for i := range backends {
		backends[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}

	// Each worker owns a private balancer and session table: RSS flow
	// affinity guarantees a flow's packets all reach the same worker, so
	// per-worker connection/flow tables are exact, not approximate. The
	// rule DB is read-only after setup and shared by every worker; under
	// -checkpoint-every each worker wraps that one DB in a
	// firewall.Stateful of its own (capture only reads the DB; a restore
	// gives the restored worker a private copy).
	balancers := make([]*maglev.Balancer, *workers)
	tables := make([]*session.Table, *workers)
	var fwStates []*firewall.Stateful
	if *checkpointEvery > 0 {
		fwStates = make([]*firewall.Stateful, *workers)
	}
	for w := range balancers {
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			log.Fatal(err)
		}
		balancers[w] = lb
		tables[w] = session.NewTable()
		if store != nil {
			// The RAM session table becomes a cache over the on-disk flow
			// index: evictions spill, misses promote back.
			ix, ierr := store.FlowIndex(fmt.Sprintf("worker-%d", w))
			if ierr != nil {
				log.Fatal(ierr)
			}
			tables[w].SetSpill(ix, 1<<17)
		}
		if fwStates != nil {
			fws, err := firewall.NewStateful(db)
			if err != nil {
				log.Fatal(err)
			}
			fwStates[w] = fws
		}
	}

	firewallOp := func(w int) netbricks.Operator {
		if fwStates != nil {
			return firewall.StatefulOperator{S: fwStates[w]}
		}
		return firewall.Operator{DB: db}
	}

	// stagesFor builds worker w's private pipeline stages. Fault injection
	// targets worker 0's firewall so a sharded run demonstrates that one
	// worker's crash leaves the others untouched.
	stagesFor := func(w int) []netbricks.Operator {
		panicOn := 0
		if w == 0 {
			panicOn = *inject
		}
		fw := &faultyStage{inner: firewallOp(w), panicOn: panicOn, inj: inj}
		return []netbricks.Operator{
			netbricks.Parse{}, fw,
			maglev.Operator{LB: balancers[w]},
			session.Operator{T: tables[w]},
		}
	}
	recoveryFor := func(w int) []func() netbricks.Operator {
		return []func() netbricks.Operator{
			nil,
			func() netbricks.Operator {
				// Recovery reinitializes the firewall from clean state; the
				// injector stays attached, so a chaos run keeps crashing at
				// the configured rate after every recovery.
				return &faultyStage{inner: firewallOp(w), inj: inj}
			},
			nil,
			nil,
		}
	}

	runner := &netbricks.ShardedRunner{
		Port: port, Workers: *workers, BatchSize: *size,
		Supervise: *supervise,
		Registry:  reg,
		Tracer:    tracer,
		Policy: domain.Policy{
			Recorder:        rec,
			CheckpointEvery: *checkpointEvery,
			OnDegrade: func(name string, events []telemetry.Event) {
				log.Printf("flight-recorder dump: %s exhausted its restart budget; last %d events:", name, len(events))
				for _, ev := range events {
					log.Printf("  %s", ev)
				}
			},
		},
	}
	if *checkpointEvery > 0 {
		runner.NewState = func(w int) domain.Stateful {
			return domain.NewStateSet().
				Add("firewall", fwStates[w]).
				Add("maglev", balancers[w]).
				Add("session", tables[w])
		}
	}
	if store != nil {
		// Guarded assignment: a nil *Store inside the interface would
		// read as non-nil to the domain layer.
		runner.Policy.Persist = store
	}
	if *direct {
		runner.NewDirect = func(w int) *netbricks.Pipeline {
			return netbricks.NewPipeline(stagesFor(w)...)
		}
	} else {
		runner.NewIsolated = func(w int) (*netbricks.IsolatedPipeline, error) {
			// Each worker's stage domains live in a private manager; the
			// worker label keeps their series apart on the shared registry.
			mgr := sfi.NewManager()
			mgr.SetRegistry(reg, telemetry.Labels{"worker": strconv.Itoa(w)})
			return netbricks.NewIsolatedPipeline(mgr, stagesFor(w), recoveryFor(w))
		}
		runner.AutoRecover = true
	}
	start := time.Now()
	// A run that lost a worker still returns its stats: the summary is
	// printed either way, and the error decides the exit status at the end.
	stats, err := runner.Run(*batches)
	elapsed := float64(time.Since(start).Nanoseconds())

	mode := "isolated (one protection domain per stage)"
	if *direct {
		mode = "direct (no isolation)"
	}
	if *supervise {
		mode += ", supervised workers"
	}
	fmt.Printf("pipeline:   parse -> firewall -> maglev -> session, %s\n", mode)
	if *workers > 1 {
		fmt.Printf("sharding:   %d workers, RSS flow steering (%d-entry RETA)\n", *workers, packet.DefaultRETASize)
	}
	fmt.Printf("batches:    %d processed (%d packets, %d filtered)\n", stats.Batches, stats.Packets, stats.Drops)
	if stats.Faults > 0 {
		fmt.Printf("faults:     %d injected, %d recovered; pipeline kept running\n", stats.Faults, stats.Recovered)
	}
	if stats.Batches > 0 {
		fmt.Printf("cost:       %.0f ns/batch, %.1f ns/packet\n",
			elapsed/float64(stats.Batches), elapsed/float64(stats.Packets))
	}
	var conns int
	var hits, misses uint64
	for _, lb := range balancers {
		h, m := lb.Stats()
		hits += h
		misses += m
		conns += lb.ConnCount()
	}
	fmt.Printf("maglev:     %d tracked connections, %d table hits, %d new flows\n", conns, hits, misses)
	flowCount, backendCount := 0, 0
	for _, t := range tables {
		flowCount += t.Len()
		backendCount += t.Backends()
	}
	fmt.Printf("session:    %d tracked flows over %d backend handles\n", flowCount, backendCount)
	if store != nil {
		ss := store.StatsSnapshot()
		fmt.Printf("statestore: %d epochs persisted (%d bytes, %d fsyncs, %d compactions), %d flows spilled, %d promoted, wal=%dB\n",
			ss.Persisted, ss.PersistBytes, ss.Fsyncs, ss.Compactions, ss.Spilled, ss.Promotions, ss.WALBytes)
	}
	if sockPort != nil {
		s := &sockPort.Stats
		fmt.Printf("port:       rx_datagrams=%d delivered=%d tx=%d tx_errors=%d\n",
			s.RxDatagrams.Load(), s.RxPackets.Load(), s.TxPackets.Load(), s.TxErrors.Load())
		fmt.Printf("shed:       ring_full=%d parse_error=%d pool_empty=%d\n",
			s.RingFull.Load(), s.ParseError.Load(), s.PoolEmpty.Load())
	} else {
		fmt.Printf("port:       rx=%d tx=%d missed=%d\n",
			simPort.Stats.RxPackets.Load(), simPort.Stats.TxPackets.Load(), simPort.Stats.RxMissed.Load())
	}
	if tracer != nil {
		armed, completed, aborted := tracer.Counts()
		fmt.Printf("trace:      1/%d sampled: %d armed, %d completed, %d aborted\n",
			tracer.SampleEvery(), armed, completed, aborted)
	}
	if sn, ok := runner.SupervisorSnapshot(); ok {
		if *checkpointEvery > 0 {
			fmt.Printf("checkpoint: %s epochs: %d taken (%d failed), %d restores, %d cold starts\n",
				*checkpointEvery, sn.Checkpoints, sn.CheckpointFailures, sn.Restores, sn.ColdStarts)
		}
		fmt.Printf("supervisor: %d restarts (%d errors, %d crashes, %d hangs), degraded=%v\n",
			sn.Restarts, sn.Errors, sn.Crashes, sn.Hangs, sn.Degraded)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runPktgen is the -target mode: drive a listening nf-pipeline (or any
// netport) with paced synthetic overlay traffic, then report the offered
// rate.
func runPktgen(target string, pps, count int, duration time.Duration, flows, sockets, batch int) {
	gen := &netport.Pktgen{
		Target:  target,
		Base:    dpdk.DefaultSpec(),
		Flows:   flows,
		PPS:     pps,
		Count:   count,
		Sockets: sockets,
		Batch:   batch,
	}
	var stop chan struct{}
	if count == 0 {
		stop = make(chan struct{})
		go func() {
			time.Sleep(duration)
			close(stop)
		}()
		log.Printf("pktgen: %s for %s at %d pps (%d flows over %d sockets)", target, duration, pps, flows, sockets)
	} else {
		log.Printf("pktgen: %s, %d datagrams at %d pps (%d flows over %d sockets)", target, count, pps, flows, sockets)
	}
	start := time.Now()
	sent, err := gen.Run(stop)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("pktgen:     sent=%d in %s (%.0f pps offered)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
}
