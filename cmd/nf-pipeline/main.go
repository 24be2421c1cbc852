// Command nf-pipeline runs a realistic isolated network-function pipeline
// end to end: receive port → parse → firewall → Maglev load balancer →
// session table, one pipeline per worker, every stage in its own
// protection domain and every worker a supervised domain — the full §3
// scenario, with §5 checkpointed state recovery on top. There is one way
// to run it; the flags only choose the traffic source, the load, and
// what to keep and show.
//
// Usage:
//
//	nf-pipeline                          # 10k batches of 32 packets
//	nf-pipeline -workers 4               # 4 workers, one RSS queue each
//	nf-pipeline -workers 4 -crashrate 0.05
//	                                     # chaos: 5% of batches panic
//	nf-pipeline -workers 4 -crashrate 0.05 -checkpoint-every 10ms
//	                                     # §5: restarted workers restore
//	                                     # their NF state from checkpoints
//	nf-pipeline -checkpoint-every 10ms -state-dir /var/lib/nf
//	                                     # ... and persist them across runs
//	nf-pipeline -metrics-addr :9090 -crashrate 0.05
//	                                     # live /metrics + flight recorder
//
// Without -listen the port is the simulated NIC. With it, real overlay
// traffic arrives over UDP, one SO_REUSEPORT socket per worker; the
// pktgen command drives it:
//
//	nf-pipeline -listen 127.0.0.1:9000 -workers 4 -egress 127.0.0.1:9001
//	pktgen -target 127.0.0.1:9000 -pps 100000 -duration 10s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

const (
	batchSize = 32   // packets per batch: one receive burst, one pipeline pass
	flows     = 4096 // distinct flows the simulated NIC carries

	// hangAfter is the supervisor's hang deadline: a worker whose batch
	// has been in the pipeline this long is abandoned and restarted. The
	// slowest batch is one that merges the flow index: in 4-worker
	// loopback runs on 2 vCPUs with 100ms durable epochs, indexes up to
	// 16 MB and most packets spilling a flow, no batch took over 537 ms
	// (DESIGN.md, "Hang detection"). The deadline sits some 20x above
	// that, so a live worker is not mistaken for a stuck one; a stuck
	// stage stalls its worker for up to hangAfter plus one poll (1 s).
	hangAfter = 10 * time.Second
)

// stageHook, when set, wraps each firewall stage run builds. It is how
// the end-to-end test holds a stage; no flag reaches it.
var stageHook func(worker int, op netbricks.Operator) netbricks.Operator

// options is what one command line asks for.
type options struct {
	workers, batches int
	listen, egress   string
	crashrate        float64
	checkpointEvery  time.Duration
	stateDir         string
	metricsAddr      string
	traceSample      int
}

// flagSet binds nf-pipeline's flags to o. Flag-syntax errors and -help
// print the usage to usage.
func flagSet(o *options, usage io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("nf-pipeline", flag.ContinueOnError)
	fs.SetOutput(usage)
	fs.IntVar(&o.workers, "workers", 1, "pipeline workers, one receive queue each")
	fs.IntVar(&o.batches, "batches", 10000, "batches each worker processes (a -listen run also ends when the wire goes quiet)")
	fs.StringVar(&o.listen, "listen", "", "receive real overlay traffic on this UDP address instead of the simulated NIC")
	fs.StringVar(&o.egress, "egress", "", "with -listen: forward transmitted frames to this UDP address (default: count and recycle)")
	fs.Float64Var(&o.crashrate, "crashrate", 0, "probability [0,1) that the firewall panics on a batch")
	fs.DurationVar(&o.checkpointEvery, "checkpoint-every", 0, "snapshot each worker's NF state at this epoch length; restarts restore the last good snapshot (0 = off)")
	fs.StringVar(&o.stateDir, "state-dir", "", "with -checkpoint-every: persist epochs to a WAL in this directory; a restart with the same directory restores the last durable epoch")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/flightrecorder, /debug/traces, /debug/alloc and pprof on this address (e.g. :9090)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "with -listen: trace one in N ingress frames per receive loop (power of two; 0 = off)")
	return fs
}

// parseArgs turns a command line into options, rejecting contradictions
// up front.
func parseArgs(args []string, usage io.Writer) (options, error) {
	var o options
	fs := flagSet(&o, usage)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.workers < 1:
		return o, errors.New("-workers must be >= 1")
	case o.crashrate < 0 || o.crashrate >= 1:
		return o, errors.New("-crashrate must be in [0,1)")
	case o.checkpointEvery < 0:
		return o, errors.New("-checkpoint-every must be >= 0")
	case set["egress"] && !set["listen"]:
		return o, errors.New("-egress forwards received traffic; it needs -listen")
	}
	if set["state-dir"] {
		if o.checkpointEvery == 0 {
			return o, errors.New("-state-dir persists checkpoint epochs; it contradicts -checkpoint-every=0 (pass -checkpoint-every > 0)")
		}
		if o.stateDir == "" {
			return o, errors.New("-state-dir needs a directory path")
		}
		// Probe writability now: an unusable state directory is a usage
		// error at startup, not a persist failure minutes into a run.
		if err := os.MkdirAll(o.stateDir, 0o755); err != nil {
			return o, fmt.Errorf("-state-dir %s is not usable: %v", o.stateDir, err)
		}
		probe, err := os.CreateTemp(o.stateDir, ".probe-*")
		if err != nil {
			return o, fmt.Errorf("-state-dir %s is not writable: %v", o.stateDir, err)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	if set["trace-sample"] {
		switch {
		case !set["listen"]:
			return o, errors.New("-trace-sample arms traces at netport ingress; it needs -listen")
		case o.traceSample < 1:
			return o, errors.New("-trace-sample must be >= 1 (1 traces every packet)")
		case o.traceSample&(o.traceSample-1) != 0:
			return o, fmt.Errorf("-trace-sample must be a power of two (the sampler is a mask, not a modulus); got %d", o.traceSample)
		}
	}
	return o, nil
}

// faultyStage wraps an operator with §3-style fault injection: a seeded
// injector that panics on a configured share of batches.
type faultyStage struct {
	inner netbricks.Operator
	inj   *faultinject.Injector
}

func (f *faultyStage) Name() string { return f.inner.Name() }

func (f *faultyStage) ProcessBatch(b *netbricks.Batch) error {
	f.inj.Point(f.inner.Name())
	return f.inner.ProcessBatch(b)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nf-pipeline: ")
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Printf("%v (see -help)", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the pipeline o describes, runs it to completion and writes
// its summary to out. A run that lost a worker still writes the summary,
// then returns the error.
func run(o options, out io.Writer) error {
	// Telemetry: one shared registry for every layer's counters and a
	// flight recorder capturing the last 256 domain events. Both are
	// nil-safe, but the pipeline always runs with them on — the record
	// path is pure atomics, so there is nothing to turn off.
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(256)
	var store *statestore.Store
	if o.stateDir != "" {
		var err error
		if store, err = statestore.Open(statestore.Config{Dir: o.stateDir}); err != nil {
			return err
		}
		defer store.Close()
		store.RegisterMetrics(reg, nil)
		log.Printf("durable state: %s, %d domains with a prior epoch, %d torn bytes and records dropped at open",
			o.stateDir, store.EpochCount(), store.StatsSnapshot().TornRecords)
	}
	var tracer *trace.Tracer
	if o.traceSample > 0 {
		tracer = trace.New(trace.Config{SampleEvery: o.traceSample, Ring: 256, Recorder: rec})
		tracer.RegisterMetrics(reg, nil)
		log.Printf("tracing one in %d ingress frames per receive loop", tracer.SampleEvery())
	}
	if o.metricsAddr != "" {
		// Sane default profile rates for the admin surface: mutex events
		// sampled 1-in-100, block events at 1ms granularity — cheap enough
		// to leave on, detailed enough that /debug/pprof/{mutex,block}
		// return something useful. CPU and heap profiles need no arming.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Millisecond))
		serveAdmin(o.metricsAddr, reg, rec, tracer)
		log.Printf("serving http://%s/metrics, /debug/flightrecorder, /debug/traces, /debug/alloc, /debug/pprof/", o.metricsAddr)
	}

	// The port: one receive queue per worker, each holding only the flows
	// RSS steers to it. The pool covers, per worker, the queue's mbuf
	// cache plus the batches a supervised worker holds at once: its
	// mailbox, the one being received, the one in the pipeline, and slack.
	var port netbricks.BurstPort
	var simPort *dpdk.Port
	var sockPort *netport.Port
	if o.listen != "" {
		var err error
		sockPort, err = netport.Open(netport.Config{
			Listen:    o.listen,
			Queues:    o.workers,
			RingSize:  4 * batchSize,
			BatchSize: batchSize, // one recvmmsg fills one worker batch
			CacheSize: batchSize,
			ReusePort: true,
			// A generous poll grace: the run ends 8 idle polls (~800ms)
			// after the wire goes quiet, not mid-burst.
			PollWait: 100 * time.Millisecond,
			TxTarget: o.egress,
			Recorder: rec,
			Tracer:   tracer,
		})
		if err != nil {
			return err
		}
		defer sockPort.Close()
		sockPort.RegisterMetrics(reg, telemetry.Labels{"port": "net0"})
		fanout := "software distributor"
		if sockPort.ReusePortActive() {
			fanout = "SO_REUSEPORT kernel fan-out"
		}
		log.Printf("listening for overlay traffic on %s (%d rx queues, %s)", sockPort.Addr(), o.workers, fanout)
		port = sockPort
	} else {
		simPort = dpdk.NewPort(dpdk.Config{
			PoolSize:  o.workers*(8*batchSize+batchSize) + 256,
			RxQueues:  o.workers,
			CacheSize: batchSize,
			QueueGen:  dpdk.NewZipfPartition(dpdk.DefaultSpec(), flows, o.workers, 1.3, 42),
		})
		simPort.RegisterMetrics(reg, telemetry.Labels{"port": "0"})
		port = simPort
	}
	db := firewall.NewDB(firewall.Deny)
	// Admit the synthetic service prefix; everything else drops.
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow, Comment: "service"}); err != nil {
		return err
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
	balancers := make([]*maglev.Balancer, o.workers)
	tables := make([]*session.Table, o.workers)
	var fwStates []*firewall.Stateful
	if o.checkpointEvery > 0 {
		fwStates = make([]*firewall.Stateful, o.workers)
	}
	for w := range balancers {
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			return err
		}
		balancers[w] = lb
		tables[w] = session.NewTable()
		if store != nil {
			// The RAM session table becomes a cache over the on-disk flow
			// index: evictions spill, misses promote back.
			ix, err := store.FlowIndex(fmt.Sprintf("worker-%d", w))
			if err != nil {
				return err
			}
			tables[w].SetSpill(ix, 1<<17)
		}
		if fwStates != nil {
			if fwStates[w], err = firewall.NewStateful(db); err != nil {
				return err
			}
		}
	}

	var inj *faultinject.Injector
	if o.crashrate > 0 {
		inj = faultinject.New(42)
		inj.PanicProb = o.crashrate
	}
	// firewallFor builds worker w's firewall stage. Recovery rebuilds it
	// the same way — from clean state, with the injector still attached,
	// so a chaos run keeps crashing at the configured rate.
	firewallFor := func(w int) netbricks.Operator {
		var op netbricks.Operator = firewall.Operator{DB: db}
		if fwStates != nil {
			op = firewall.StatefulOperator{S: fwStates[w]}
		}
		if inj != nil {
			op = &faultyStage{inner: op, inj: inj}
		}
		if stageHook != nil {
			op = stageHook(w, op)
		}
		return op
	}

	runner := &netbricks.ShardedRunner{
		Port: port, Workers: o.workers, BatchSize: batchSize,
		Supervise: true,
		Registry:  reg,
		Tracer:    tracer,
		Policy: domain.Policy{
			HangAfter:       hangAfter,
			Recorder:        rec,
			CheckpointEvery: o.checkpointEvery,
			OnExhausted: func(name string, events []telemetry.Event) {
				log.Printf("flight-recorder dump: %s exhausted its restart budget; last %d events:", name, len(events))
				for _, ev := range events {
					log.Printf("  %s", ev)
				}
			},
		},
		NewIsolated: func(w int) (*netbricks.Pipeline, error) {
			// Each worker's stage domains live in a private manager; the
			// worker label keeps their series apart on the shared registry.
			mgr := sfi.NewManager()
			mgr.SetRegistry(reg, telemetry.Labels{"worker": strconv.Itoa(w)})
			stages := []netbricks.Operator{
				netbricks.Parse{}, firewallFor(w),
				maglev.Operator{LB: balancers[w]},
				session.Operator{T: tables[w]},
			}
			recovery := []func() netbricks.Operator{nil, func() netbricks.Operator { return firewallFor(w) }, nil, nil}
			return netbricks.NewIsolatedPipeline(mgr, stages, recovery)
		},
	}
	if o.checkpointEvery > 0 {
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
	// A run that lost a worker still returns its stats: the summary is
	// printed either way, and the error decides the exit status at the end.
	stats, runErr := runner.Run(o.batches)

	fmt.Fprintf(out, "pipeline:   parse -> firewall -> maglev -> session, one protection domain per stage, supervised workers\n")
	if o.workers > 1 {
		fmt.Fprintf(out, "sharding:   %d workers, RSS flow steering (%d-entry RETA)\n", o.workers, packet.DefaultRETASize)
	}
	fmt.Fprintf(out, "batches:    %d processed (%d packets, %d filtered)\n", stats.Batches, stats.Packets, stats.Drops)
	if stats.Faults > 0 {
		fmt.Fprintf(out, "faults:     %d injected, %d recovered; pipeline kept running\n", stats.Faults, stats.Recovered)
	}
	var conns int
	var hits, misses, evictions uint64
	for _, lb := range balancers {
		h, m := lb.Stats()
		hits += h
		misses += m
		conns += lb.ConnCount()
		evictions += lb.Evictions()
	}
	fmt.Fprintf(out, "maglev:     %d tracked connections, %d table hits, %d new flows, %d evictions\n", conns, hits, misses, evictions)
	flowCount, backendCount := 0, 0
	var moved uint64
	for _, t := range tables {
		flowCount += t.Len()
		backendCount += t.Backends()
		moved += t.Moved()
	}
	fmt.Fprintf(out, "session:    %d tracked flows over %d backend handles, %d packets moved\n", flowCount, backendCount, moved)
	if store != nil {
		ss := store.StatsSnapshot()
		fmt.Fprintf(out, "statestore: %d epochs persisted (%d bytes, %d fsyncs, %d compactions), %d flows spilled, %d promoted, wal=%dB\n",
			ss.Persisted, ss.PersistBytes, ss.Fsyncs, ss.Compactions, ss.Spilled, ss.Promotions, ss.WALBytes)
	}
	if sockPort != nil {
		s := &sockPort.Stats
		fmt.Fprintf(out, "port:       rx_datagrams=%d delivered=%d tx=%d tx_errors=%d\n",
			s.RxDatagrams.Load(), s.RxPackets.Load(), s.TxPackets.Load(), s.TxErrors.Load())
		fmt.Fprintf(out, "shed:       ring_full=%d parse_error=%d pool_empty=%d\n",
			s.RingFull.Load(), s.ParseError.Load(), s.PoolEmpty.Load())
	} else {
		fmt.Fprintf(out, "port:       rx=%d tx=%d\n", simPort.Stats.RxPackets.Load(), simPort.Stats.TxPackets.Load())
	}
	if tracer != nil {
		armed, completed, aborted := tracer.Counts()
		fmt.Fprintf(out, "trace:      1/%d sampled: %d armed, %d completed, %d aborted\n",
			tracer.SampleEvery(), armed, completed, aborted)
	}
	if sn, ok := runner.SupervisorSnapshot(); ok {
		if o.checkpointEvery > 0 {
			fmt.Fprintf(out, "checkpoint: %s epochs: %d taken (%d failed), %d restores\n",
				o.checkpointEvery, sn.Checkpoints, sn.CheckpointFailures, sn.Restores)
		}
		fmt.Fprintf(out, "supervisor: %d restarts (%d errors, %d crashes, %d hangs)\n",
			sn.Restarts, sn.Errors, sn.Crashes, sn.Hangs)
	}
	return runErr
}
