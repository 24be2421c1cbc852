package main

// The NF child: one workload, one fresh process. It builds the NF the way
// cmd/nf-pipeline does (parse → firewall → maglev → session under a
// supervised sharded runner), feeds it generated packets for a fixed
// warm-up and a fixed measured window, checks the outputs, and prints one
// result. The program under test sees only generated packets.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/domain"
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

// The common shape of every workload.
const (
	numWorkers   = 2
	batchSize    = 32
	mailboxDepth = 4 // the runner's default, spelled out for pool sizing
	sliceEvery   = 250 * time.Millisecond
)

// workload is the part that differs.
type workload struct {
	Name            string
	Why             string
	Flows           int     // resident flows the firewall allows
	ZipfS           float64 // 0 = uniform round-robin
	FreshPerSec     float64 // never-seen flows opened per second; 0 = never
	CheckpointEvery time.Duration
	Durable         bool // statestore WAL + firewall in the state set + spill index
	SpillCap        int  // session RAM cap per worker
	FaultEvery      int  // the chaos operator panics on every n-th batch per worker
	RatePPS         int  // sock-rate's open-loop offered rate
}

var workloads = map[string]workload{
	wlSteady: {
		Name:  wlSteady,
		Why:   "saturating closed loop, 4096 established flows, no checkpoints or faults: runner, crossings, mailbox and the three NFs do all the work",
		Flows: 4096,
	},
	wlDurable: {
		Name:  wlDurable,
		Why:   "production durable config: 100ms epochs to a fsynced WAL, 32768 Zipf flows over a 16384-flow RAM cap per worker, so capture, encode, WAL and spill never stop",
		Flows: 32768, ZipfS: 1.1, FreshPerSec: 1000,
		CheckpointEvery: 100 * time.Millisecond, Durable: true, SpillCap: 16384,
	},
	wlChaos: {
		Name:  wlChaos,
		Why:   "mem-steady traffic with a panic every 2000th batch per worker and 10ms RAM checkpoints: supervisor restart, sfi rebind and checkpoint restore",
		Flows: 4096, CheckpointEvery: 10 * time.Millisecond, FaultEvery: 2000,
	},
	wlSock: {
		Name:  wlSock,
		Why:   "real UDP over host loopback at an open-loop 50k pps from a separate generator process: recvmmsg/sendmmsg, rings and the kernel dominate",
		Flows: 4096, RatePPS: 50000,
	},
}

// runConfig is one child run.
type runConfig struct {
	Workload string
	Seed     int64
	Warmup   time.Duration
	Seconds  time.Duration
	Traced   bool
	Scale    int    // table-size divisor; 1 = the sizes above
	Rung     string // ladder rung: "", "direct", "isolated" or "supervised"
	OutDir   string
	TxTarget string // sock-rate: the generator's sink
}

func (c runConfig) workload() workload {
	wl := workloads[c.Workload]
	if c.Scale > 1 {
		wl.Flows /= c.Scale
		wl.SpillCap /= c.Scale
	}
	return wl
}

// check is one correctness check; any failure fails the whole command.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// nfResult is what the child reports.
type nfResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Counts  map[string]float64 `json:"counts"`
	Checks  []check            `json:"checks"`
	Ledger  []ledgerLine       `json:"ledger,omitempty"`
}

func (r *nfResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func allowedDst(ip packet.IPv4) bool { return ip>>16 == packet.Addr(10, 99, 0, 0)>>16 }

func newRuleDB() (*firewall.DB, error) {
	db := firewall.NewDB(firewall.Deny)
	_, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow, Comment: "service"})
	return db, err
}

func newBackends() []maglev.Backend {
	backends := make([]maglev.Backend, 8)
	for i := range backends {
		backends[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	return backends
}

// nfState is one worker's NF state, as cmd/nf-pipeline builds it.
type nfState struct {
	fw    *firewall.Stateful // durable workloads only
	lb    *maglev.Balancer
	table *session.Table
	set   *domain.StateSet // nil without checkpointing
}

// newNFState builds a worker's state. With a store, the session table
// becomes a cache over the store's flow index; wrapSpill lets the traced
// run time that index.
func newNFState(wl workload, w int, store *statestore.Store, wrapSpill func(session.Spill, int) session.Spill) (*nfState, error) {
	lb, err := maglev.NewBalancer(newBackends(), maglev.DefaultTableSize)
	if err != nil {
		return nil, err
	}
	st := &nfState{lb: lb, table: session.NewTable()}
	if store != nil {
		ix, err := store.FlowIndex(fmt.Sprintf("worker-%d", w))
		if err != nil {
			return nil, err
		}
		var sp session.Spill = ix
		if wrapSpill != nil {
			sp = wrapSpill(ix, w)
		}
		st.table.SetSpill(sp, wl.SpillCap)
	}
	if wl.CheckpointEvery == 0 {
		return st, nil
	}
	st.set = domain.NewStateSet()
	if wl.Durable {
		db, err := newRuleDB()
		if err != nil {
			return nil, err
		}
		if st.fw, err = firewall.NewStateful(db); err != nil {
			return nil, err
		}
		st.set.Add("firewall", st.fw)
	}
	st.set.Add("maglev", lb).Add("session", st.table)
	return st, nil
}

// snap is one reading of the counters the measured window is cut from.
type snap struct {
	at     int64 // ns after base
	rx, tx uint64
	cpu    int64 // process user+sys ns
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// counters is one reading of the layers' public counters.
type counters struct {
	dom               domain.Snapshot
	store             statestore.Stats
	spilled, promoted uint64
	lbHits, lbMisses  uint64
	liveFlows         int
	mallocs           uint64
	gcCycles          uint32
	gcPauseNs         uint64
	queueRx           [numWorkers]uint64
	np                netportCounts
}

// netportCounts copies netport.Stats' counters.
type netportCounts struct {
	rxDatagrams, rxBatches, rxPackets uint64
	txPackets, txBatches, txErrors    uint64
	ringFull, poolEmpty, parseError   uint64
}

func (c netportCounts) shed() uint64 { return c.ringFull + c.poolEmpty + c.parseError }

// window is what the measuring goroutine hands back.
type window struct {
	slices []snap // slices[0] opens the measured window, the last closes it
	c1, c2 counters
}

// nf is one child's NF: the state, the port and the runner, built the way
// cmd/nf-pipeline builds them, plus the harness pieces around them.
type nf struct {
	cfg    runConfig
	wl     workload
	base   time.Time
	stages []string
	tr     *spanTrace // nil in the untraced run

	store    *statestore.Store
	stateDir string
	states   []*nfState
	chaos    []*chaosState // nil entries without a fault schedule

	gens     []*queueGen // mem-* only
	simPort  *dpdk.Port
	poolSize int
	sockPort *netport.Port       // sock-rate only
	xreg     *telemetry.Registry // sock-rate traced: the program's own tracer's histograms

	port   *phasePort
	runner *netbricks.ShardedRunner
}

func (n *nf) supervised() bool { return n.cfg.Rung == "" || n.cfg.Rung == "supervised" }

// close releases what buildNF opened; safe on a half-built nf.
func (n *nf) close() {
	if n.sockPort != nil {
		n.sockPort.Close()
	}
	if n.store != nil {
		n.store.Close()
	}
	if n.stateDir != "" {
		os.RemoveAll(n.stateDir)
	}
}

// buildNF builds one workload's NF. On error the caller still closes it.
func buildNF(cfg runConfig, base time.Time) (*nf, error) {
	n := &nf{cfg: cfg, wl: cfg.workload(), base: base, stages: []string{"parse", "firewall", "maglev", "session"}}
	wl := n.wl
	sock := wl.RatePPS > 0
	if wl.FaultEvery > 0 {
		n.stages = []string{"parse", "chaos", "firewall", "maglev", "session"}
	}
	if cfg.Traced {
		n.tr = newSpanTrace(base, numWorkers, n.stages, sock)
	}
	tr := n.tr

	// Durable state, as cmd/nf-pipeline -state-dir wires it.
	var err error
	if wl.Durable {
		if n.stateDir, err = os.MkdirTemp(cfg.OutDir, "state-*"); err != nil {
			return n, err
		}
		if n.store, err = statestore.Open(statestore.Config{Dir: n.stateDir, Fsync: statestore.FsyncGroup}); err != nil {
			return n, err
		}
	}
	var wrapSpill func(session.Spill, int) session.Spill
	if tr != nil {
		wrapSpill = func(s session.Spill, w int) session.Spill { return &timedSpill{inner: s, t: tr, worker: w} }
	}
	sharedDB, err := newRuleDB()
	if err != nil {
		return n, err
	}
	n.states = make([]*nfState, numWorkers)
	n.chaos = make([]*chaosState, numWorkers)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	for w := range n.states {
		if n.states[w], err = newNFState(wl, w, n.store, wrapSpill); err != nil {
			return n, err
		}
		if wl.FaultEvery > 0 {
			n.chaos[w] = newChaosState(base, wl.FaultEvery, rng.Intn(wl.FaultEvery))
		}
	}

	// stageFor builds worker w's k-th operator; stage recovery after a
	// fault calls it again.
	stageFor := func(w, k int) netbricks.Operator {
		var op netbricks.Operator
		switch st := n.states[w]; n.stages[k] {
		case "parse":
			op = netbricks.Parse{}
		case "chaos":
			op = chaosOp{s: n.chaos[w]}
		case "firewall":
			if st.fw != nil {
				op = firewall.StatefulOperator{S: st.fw}
			} else {
				op = firewall.Operator{DB: sharedDB}
			}
		case "maglev":
			op = maglev.Operator{LB: st.lb}
		case "session":
			op = session.Operator{T: st.table}
		}
		if tr != nil {
			op = &timedOp{inner: op, idx: k, wt: tr.workers[w]}
		}
		return op
	}
	stagesFor := func(w int) (ops []netbricks.Operator, factories []func() netbricks.Operator) {
		for k := range n.stages {
			k := k
			ops = append(ops, stageFor(w, k))
			factories = append(factories, func() netbricks.Operator { return stageFor(w, k) })
		}
		return ops, factories
	}

	// The port: the simulated NIC fed by the harness's per-queue
	// generator, or a real UDP socket group.
	var inner netbricks.BurstPort
	var xtracer *trace.Tracer
	if sock {
		if cfg.Traced {
			// The program's own sampled tracer, armed as an independent
			// measurement of the stages the harness spans cover.
			xtracer = trace.New(trace.Config{SampleEvery: 1024, Ring: 256})
			n.xreg = telemetry.NewRegistry()
			xtracer.RegisterMetrics(n.xreg, nil)
		}
		n.sockPort, err = netport.Open(netport.Config{
			Listen: "127.0.0.1:0", Queues: numWorkers, BatchSize: batchSize,
			// A ring deep enough to ride out the sandbox's own stalls (a
			// stolen vCPU freezes a worker for tens of ms while the
			// generator keeps sending); overload shedding is not what
			// this workload measures.
			RingSize:  4096,
			ReusePort: true, PollWait: 50 * time.Millisecond,
			TxTarget: cfg.TxTarget, ReadBuffer: 4 << 20, Tracer: xtracer,
		})
		if err != nil {
			return n, err
		}
		inner = n.sockPort
		fmt.Printf("LISTEN %s\n", n.sockPort.Addr())
	} else {
		fs := newFlowSet(cfg.Seed, wl.Flows)
		n.gens = newQueueGens(cfg.Seed, fs, numWorkers, wl.ZipfS, wl.FreshPerSec)
		// Per worker: the mailbox's batches, one in the feeder, one in
		// the pipeline, and slack; plus the queue's mbuf cache.
		n.poolSize = numWorkers*(batchSize*(mailboxDepth+4)+64) + 256
		n.simPort = dpdk.NewPort(dpdk.Config{
			PoolSize: n.poolSize, RxQueues: numWorkers, CacheSize: 64,
			QueueGen: func(q int) dpdk.Generator { return n.gens[q] },
		})
		inner = n.simPort
	}
	n.port = newPhasePort(inner, base, sock, tr)

	// The runner: the supervised sharded path, or a ladder rung below it.
	n.runner = &netbricks.ShardedRunner{
		Port: n.port, Workers: numWorkers, BatchSize: batchSize, MailboxDepth: mailboxDepth,
		Tracer: xtracer,
	}
	if cfg.Rung == "direct" {
		n.runner.NewDirect = func(w int) *netbricks.Pipeline {
			ops, _ := stagesFor(w)
			return netbricks.NewPipeline(ops...)
		}
	} else {
		n.runner.AutoRecover = true
		n.runner.NewIsolated = func(w int) (*netbricks.IsolatedPipeline, error) {
			ops, factories := stagesFor(w)
			return netbricks.NewIsolatedPipeline(sfi.NewManager(), ops, factories)
		}
	}
	if !n.supervised() {
		return n, nil
	}
	n.runner.Supervise = true
	n.runner.Policy = domain.Policy{
		Backoff: 20 * time.Microsecond, MaxBackoff: time.Millisecond, MaxRestarts: -1,
		CheckpointEvery: wl.CheckpointEvery,
	}
	if n.store != nil {
		// Guarded: a nil *Store inside the interface would read as set.
		n.runner.Policy.Persist = n.store
		if tr != nil {
			n.runner.Policy.Persist = &timedPersist{inner: n.store, t: tr}
		}
	}
	if wl.CheckpointEvery > 0 {
		n.runner.NewState = func(w int) domain.Stateful {
			st := n.states[w]
			if tr != nil {
				return &timedState{inner: st.set, t: tr, worker: w, flows: st.table.Len}
			}
			return st.set
		}
	}
	return n, nil
}

func (n *nf) readSnap() snap {
	rx, tx, _, _ := n.port.totals()
	return snap{at: int64(time.Since(n.base)), rx: rx, tx: tx, cpu: cpuNanos()}
}

// readCounters reads every layer's public counters. All of them are safe
// to read while the NF runs.
func (n *nf) readCounters() counters {
	var c counters
	c.dom = domain.MergeSnapshots("workers", n.runner.DomainSnapshots())
	if n.store != nil {
		c.store = n.store.StatsSnapshot()
	}
	for _, st := range n.states {
		sp, pr, _ := st.table.SpillStats()
		c.spilled += sp
		c.promoted += pr
		h, m := st.lb.Stats()
		c.lbHits += h
		c.lbMisses += m
		c.liveFlows += st.table.Len()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcCycles, c.gcPauseNs = ms.Mallocs, ms.NumGC, ms.PauseTotalNs
	for q := range c.queueRx {
		c.queueRx[q] = n.port.q[q].rx.Load()
	}
	if n.sockPort != nil {
		s := &n.sockPort.Stats
		c.np = netportCounts{
			rxDatagrams: s.RxDatagrams.Load(), rxBatches: s.RxBatches.Load(), rxPackets: s.RxPackets.Load(),
			txPackets: s.TxPackets.Load(), txBatches: s.TxBatches.Load(), txErrors: s.TxErrors.Load(),
			ringFull: s.RingFull.Load(), poolEmpty: s.PoolEmpty.Load(), parseError: s.ParseError.Load(),
		}
	}
	return c
}

// cutWindow runs beside the NF: it waits for the first forwarded packet,
// which ends the set-up, waits out the warm-up, reads the counters every
// sliceEvery for the measured seconds, and then stops the port, which ends
// the run. A run of no seconds after no warm-up only times its set-up.
func (n *nf) cutWindow() window {
	var win window
	for n.port.firstTx.Load() == 0 && time.Now().Before(n.port.giveUp) {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(n.cfg.Warmup)
	win.c1 = n.readCounters()
	if n.tr != nil {
		n.tr.measuring.Store(true)
	}
	first := n.readSnap()
	win.slices = append(win.slices, first)
	end := first.at + int64(n.cfg.Seconds)
	for {
		left := time.Duration(end - int64(time.Since(n.base)))
		if left <= 0 {
			break
		}
		time.Sleep(min(left, sliceEvery))
		win.slices = append(win.slices, n.readSnap())
	}
	if n.tr != nil {
		n.tr.measuring.Store(false)
	}
	win.c2 = n.readCounters()
	n.port.stop.Store(true)
	return win
}

// runNF runs one workload (or ladder rung) in this process.
func runNF(cfg runConfig, parentStart time.Time) (*nfResult, error) {
	base := time.Now()
	n, err := buildNF(cfg, base)
	defer n.close()
	if err != nil {
		return nil, err
	}
	winCh := make(chan window, 1)
	go func() { winCh <- n.cutWindow() }()
	stats, err := n.runner.Run(math.MaxInt)
	win := <-winCh
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	res := &nfResult{Metrics: map[string]float64{}, Counts: map[string]float64{}}
	// The serving NF's high-water mark, read before mem-durable's
	// epilogue: a cold reopen replays the whole WAL in memory, and how
	// much WAL is left depends on when the last compaction fell.
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	// Set-up runs from the child's exec to the first forwarded packet: the
	// runtime's start, table builds, store open, socket open and, on
	// sock-rate, the generator's hand-shake. The fixed warm-up that follows
	// is not part of it: a constant would hide the set-up it is added to.
	res.Metrics["setup_s"] = (base.Sub(parentStart) + time.Duration(n.port.firstTx.Load())).Seconds()
	n.endToEnd(res, win)
	final := n.readCounters()
	n.conservation(res, stats, final.np)
	n.layerCounters(res, win, final)
	if n.store != nil && n.supervised() {
		if err := n.reopenAndRestore(res); err != nil {
			return nil, err
		}
	}
	if n.tr != nil {
		if err := n.spans(res, win); err != nil {
			return nil, err
		}
	}
	res.Counts["child_peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// endToEnd cuts the window's rates. Each is the median over the slices,
// so that a transient stall of the sandbox moves one slice, not the run.
func (n *nf) endToEnd(res *nfResult, win window) {
	first, last := win.slices[0], win.slices[len(win.slices)-1]
	var pps, cpuPer []float64
	for i := 1; i < len(win.slices); i++ {
		a, b := win.slices[i-1], win.slices[i]
		if b.tx > a.tx && b.at > a.at {
			pps = append(pps, float64(b.tx-a.tx)/(float64(b.at-a.at)/1e9))
			cpuPer = append(cpuPer, float64(b.cpu-a.cpu)/float64(b.tx-a.tx))
		}
	}
	seconds := float64(last.at-first.at) / 1e9
	fwd := float64(last.tx - first.tx)
	res.Metrics["e2e.pkts_per_s"] = median(pps)
	res.Metrics["e2e.cpu_ns_per_pkt"] = median(cpuPer)
	res.Metrics["gen.offered_pps"] = ratio(float64(last.rx-first.rx), seconds)
	res.Counts["window_s"] = seconds
	res.Counts["window_forwarded"] = fwd
	res.Counts["window_pps_mean"] = ratio(fwd, seconds)
	res.Counts["window_cpu_ns_per_pkt_mean"] = ratio(float64(last.cpu-first.cpu), fwd)
	res.Counts["slices"] = float64(len(pps))
}

// conservation checks, over the whole run and at quiescence, that every
// packet offered was forwarded, deliberately filtered, or lost in a batch
// the harness itself faulted; that the firewall filtered exactly the
// packets generated for denied flows; and that no mbuf leaked. np is the
// socket port's own accounting (zero on mem-*).
func (n *nf) conservation(res *nfResult, stats netbricks.RunStats, np netportCounts) {
	offered, forwarded, freed, _ := n.port.totals()
	filtered := stats.Drops
	var faults, lostInFaults, deniedInFaults uint64
	for _, cs := range n.chaos {
		if cs != nil {
			faults += cs.faults.Load()
			lostInFaults += cs.lostPkts.Load()
			deniedInFaults += cs.lostDenied.Load()
		}
	}
	lost := int64(freed) - int64(filtered)
	res.Counts["offered"] = float64(offered)
	res.Counts["forwarded"] = float64(forwarded)
	res.Counts["filtered"] = float64(filtered)
	res.Counts["lost"] = float64(lost)
	res.Counts["faults"] = float64(faults)
	res.Counts["lost_in_faults"] = float64(lostInFaults)
	res.check("conservation", offered == forwarded+freed && stats.Packets == forwarded,
		"offered %d = forwarded %d + filtered %d + lost %d (runner counted %d forwarded)", offered, forwarded, filtered, lost, stats.Packets)
	res.check("lost-is-faulted", lost == int64(lostInFaults),
		"%d packets lost, %d packets were in the %d faulted batches", lost, lostInFaults, faults)
	res.Metrics["e2e.loss_ratio"] = ratio(float64(lost)-float64(lostInFaults), float64(offered))
	res.Metrics["delivered_ratio"] = 1 - res.Metrics["e2e.loss_ratio"]
	res.Metrics["firewall.filtered_share"] = ratio(float64(filtered), float64(offered))
	if n.wl.FaultEvery > 0 {
		res.Metrics["e2e.lost_pkts_per_fault"] = ratio(float64(lostInFaults), float64(faults))
	}

	if n.gens != nil {
		var denied, fresh uint64
		for _, g := range n.gens {
			denied += g.denied.Load()
			fresh += g.fresh.Load()
		}
		res.Counts["generated_fresh_flows"] = float64(fresh)
		res.Counts["alloc_fail"] = float64(n.simPort.Stats.AllocFail.Load())
		res.check("filtered-is-denied", filtered == denied-deniedInFaults,
			"firewall filtered %d, generator emitted %d denied packets (%d died in faulted batches)", filtered, denied, deniedInFaults)
		res.Metrics["mempool.leaked_mbufs"] = float64(n.poolSize - n.simPort.PoolAvailable())
	} else {
		res.Counts["netport_rx_datagrams"] = float64(np.rxDatagrams)
		res.Counts["netport_tx_packets"] = float64(np.txPackets)
		res.Counts["netport_tx_errors"] = float64(np.txErrors)
		res.check("netport-accounting", np.rxDatagrams == np.rxPackets+np.shed() && np.rxPackets == offered,
			"rx_datagrams %d = delivered %d + ring_full %d + pool_empty %d + parse_error %d; the pipeline saw %d",
			np.rxDatagrams, np.rxPackets, np.ringFull, np.poolEmpty, np.parseError, offered)
		n.sockPort.Close()
		res.Metrics["mempool.leaked_mbufs"] = float64(n.sockPort.PoolCapacity() - n.sockPort.PoolAvailable())
	}
	leaked := res.Metrics["mempool.leaked_mbufs"]
	res.check("no-mbuf-leak", leaked == 0, "%.0f mbufs missing from the pool after close", leaked)
}

// layerCounters turns the layers' public counters into per-layer metrics:
// deltas over the measured window, or totals where a total is the point.
func (n *nf) layerCounters(res *nfResult, win window, final counters) {
	m := res.Metrics
	d1, d2 := win.c1, win.c2
	fwd := res.Counts["window_forwarded"]
	m["maglev.new_flow_share"] = ratio(float64(d2.lbMisses-d1.lbMisses), float64(d2.lbHits+d2.lbMisses-d1.lbHits-d1.lbMisses))
	// Flows that entered the table for the first time: growth, plus what
	// was evicted to make room, less what came back from the spill index.
	newFlows := float64(d2.liveFlows-d1.liveFlows) + float64(d2.spilled-d1.spilled) - float64(d2.promoted-d1.promoted)
	m["session.new_flow_share"] = ratio(newFlows, fwd)
	m["session.live_flows"] = float64(d2.liveFlows)
	m["session.spilled"] = float64(d2.spilled - d1.spilled)
	m["session.promoted"] = float64(d2.promoted - d1.promoted)
	m["domain.ckpt_count"] = float64(d2.dom.Checkpoints - d1.dom.Checkpoints)
	m["domain.ckpt_failures"] = float64(final.dom.CheckpointFailures + final.dom.PersistFailures)
	m["domain.restarts"] = float64(d2.dom.Restarts - d1.dom.Restarts)
	m["domain.restores"] = float64(d2.dom.Restores - d1.dom.Restores)
	m["domain.cold_starts"] = float64(final.dom.ColdStarts)
	persisted := float64(d2.store.Persisted - d1.store.Persisted)
	m["statestore.bytes_per_epoch"] = ratio(float64(d2.store.PersistBytes-d1.store.PersistBytes), persisted)
	m["statestore.fsyncs_per_epoch"] = ratio(float64(d2.store.Fsyncs-d1.store.Fsyncs), persisted)
	m["statestore.compactions"] = float64(d2.store.Compactions - d1.store.Compactions)
	m["statestore.wal_bytes_end"] = float64(final.store.WALBytes)
	m["runtime.allocs_per_pkt"] = ratio(float64(d2.mallocs-d1.mallocs), fwd)
	m["runtime.gc_cycles"] = float64(d2.gcCycles - d1.gcCycles)
	m["runtime.gc_pause_ms_total"] = float64(d2.gcPauseNs-d1.gcPauseNs) / 1e6

	if n.wl.FaultEvery > 0 {
		first, last := win.slices[0], win.slices[len(win.slices)-1]
		var outs []float64
		var faults uint64
		for _, cs := range n.chaos {
			outs = append(outs, cs.outagesIn(first.at, last.at)...)
			faults += cs.faults.Load()
		}
		m["e2e.outage_ms_p50"] = median(outs) / 1e6
		res.Counts["outages"] = float64(len(outs))
		res.check("no-cold-starts", final.dom.ColdStarts == 0, "%d cold starts over %d restarts", final.dom.ColdStarts, final.dom.Restarts)
		res.check("every-fault-restored", final.dom.Restores == faults, "%d restores for %d faults", final.dom.Restores, faults)
	}
	if n.sockPort != nil {
		n1, n2 := d1.np, d2.np
		m["netport.dgrams_per_rxbatch"] = ratio(float64(n2.rxDatagrams-n1.rxDatagrams), float64(n2.rxBatches-n1.rxBatches))
		m["netport.dgrams_per_txbatch"] = ratio(float64(n2.txPackets-n1.txPackets), float64(n2.txBatches-n1.txBatches))
		_, _, _, idle := n.port.totals()
		m["netport.rx_idle_polls"] = float64(idle)
		var qmax, qsum float64
		for q := range d1.queueRx {
			got := float64(d2.queueRx[q] - d1.queueRx[q])
			qmax = max(qmax, got)
			qsum += got
		}
		m["netport.queue_imbalance"] = ratio(qmax*numWorkers, qsum) - 1
		m["netport.shed_ring_full"] = float64(final.np.ringFull)
		m["netport.shed_pool_empty"] = float64(final.np.poolEmpty)
		m["netport.shed_parse_error"] = float64(final.np.parseError)
	}
}

// spans turns the traced run's spans into per-layer metrics and the
// ledger, and writes the trace file.
func (n *nf) spans(res *nfResult, win window) error {
	first, last := win.slices[0], win.slices[len(win.slices)-1]
	whole := res.Counts["window_cpu_ns_per_pkt_mean"]
	lm, lines := n.tr.layerMetrics(n.tr.summarize(first.at, last.at), n.port.wire, numWorkers, float64(last.at-first.at), whole)
	if n.xreg != nil {
		snapshot := n.xreg.Snapshot()
		for _, stage := range []string{"firewall", "maglev", "session", "tx"} {
			hv, _ := snapshot[fmt.Sprintf("trace_stage_latency_seconds{stage=%q}", stage)].(telemetry.HistogramValue)
			tracerMean := ratio(hv.SumSecs*1e9, float64(hv.Count))
			lm["xcheck."+stage+".ratio"] = ratio(lm["span.seg."+stage+".mean_ns"], tracerMean)
			res.Counts["tracer_"+stage+"_mean_ns"] = tracerMean
			res.Counts["tracer_"+stage+"_samples"] = float64(hv.Count)
		}
	}
	for k, v := range lm {
		if strings.HasPrefix(k, "span.") {
			res.Counts[k] = v
		} else {
			res.Metrics[k] = v
		}
	}
	res.Ledger = lines
	if n.cfg.Rung != "" {
		return nil
	}
	path := fmt.Sprintf("%s/trace-%s.jsonl", n.cfg.OutDir, n.cfg.Workload)
	return n.tr.writeTrace(path, n.cfg.Workload, n.cfg.Seed, first.at, last.at)
}

// peakRSSMB is this process's high-water resident set so far: VmHWM, which
// belongs to the address space. getrusage's ru_maxrss is the fallback only:
// across an exec it keeps the high-water mark of the address space the
// child was started from (os/exec starts children with vfork semantics),
// so a small child would report its parent's peak.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// reopenAndRestore is mem-durable's epilogue: persist one final epoch
// through the public API, close the store, and time a cold open plus
// LastEpoch, DecodeToken and Restore for every worker. What comes back
// must equal the live tables.
func (n *nf) reopenAndRestore(res *nfResult) error {
	store, live, tr := n.store, n.states, n.tr
	engine := checkpoint.NewEngine(checkpoint.RcAware)
	for w, st := range live {
		name := fmt.Sprintf("worker-%d", w)
		tok, err := st.set.Checkpoint(engine)
		if err != nil {
			return fmt.Errorf("final epoch: %w", err)
		}
		payload, err := st.set.EncodeToken(tok)
		if err != nil {
			return fmt.Errorf("final epoch: %w", err)
		}
		_, seq, _, err := store.LastEpoch(name)
		if err != nil {
			return fmt.Errorf("final epoch: %w", err)
		}
		if err := store.PersistEpoch(name, seq+1, payload); err != nil {
			return fmt.Errorf("final epoch: %w", err)
		}
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}

	start := time.Now()
	cold, err := statestore.Open(statestore.Config{Dir: n.stateDir, Fsync: statestore.FsyncGroup})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer cold.Close()
	openNs := time.Since(start)
	var building time.Duration // fresh components are configuration, not state
	same := true
	var restored, want int
	for w, st := range live {
		t0 := time.Now()
		fresh, err := newNFState(n.wl, w, cold, nil)
		if err != nil {
			return err
		}
		var state interface {
			domain.Stateful
			domain.TokenCodec
		} = fresh.set
		if tr != nil {
			state = &timedState{inner: fresh.set, t: tr, worker: w, flows: fresh.table.Len}
		}
		building += time.Since(t0)
		payload, _, ok, err := cold.LastEpoch(fmt.Sprintf("worker-%d", w))
		if err != nil || !ok {
			return fmt.Errorf("reopen: worker %d has no durable epoch (err=%v)", w, err)
		}
		tok, err := state.DecodeToken(payload)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if err := state.Restore(tok); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		t0 = time.Now()
		got, wantE := fresh.table.Entries(), st.table.Entries()
		restored += len(got)
		want += len(wantE)
		if len(got) != len(wantE) {
			same = false
		}
		for h, ip := range wantE {
			if got[h] != ip {
				same = false
				break
			}
		}
		building += time.Since(t0)
	}
	res.Metrics["e2e.reopen_restore_s"] = (time.Since(start) - building).Seconds()
	res.Metrics["statestore.open_replay_ms"] = float64(openNs) / 1e6
	res.check("reopen-equals-live", same, "restored %d flows from disk, live tables hold %d", restored, want)
	return nil
}
