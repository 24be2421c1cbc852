// End-to-end loopback tier: a pktgen goroutine sends overlay datagrams
// through the kernel's UDP loopback into a netport, a supervised
// 4-worker sharded pipeline (parse → firewall → maglev) consumes them
// with RSS flow affinity, and transmitted frames leave through a second
// socket where a sink counts them. External test package: the pipeline
// under test is the real netbricks runtime with the real NF operators,
// exactly what `nf-pipeline -listen` runs.
package netport_test

import (
	"bytes"
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/leakcheck"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// e2ePipeline builds the per-worker direct pipeline factory: the same
// parse → firewall → maglev chain the chaos tier runs, allowing the
// 10.99.0.0/16 destinations DefaultSpec traffic carries.
func e2ePipeline(t *testing.T) func(w int) *netbricks.Pipeline {
	t.Helper()
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	backends := []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
	return func(w int) *netbricks.Pipeline {
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
			return netbricks.NewPipeline()
		}
		return netbricks.NewPipeline(
			netbricks.Parse{},
			firewall.Operator{DB: db},
			maglev.Operator{LB: lb},
		)
	}
}

// sinkListen binds a loopback UDP socket and counts datagrams arriving
// on it until the socket closes.
func sinkListen(t *testing.T) (addr string, count *atomic.Uint64) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	count = new(atomic.Uint64)
	go func() {
		buf := make([]byte, netport.MbufSize)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			count.Add(1)
		}
	}()
	return conn.LocalAddr().String(), count
}

// waitQuiescent polls until the port's datagram counter stops moving, so
// accounting assertions see every datagram the kernel had in flight.
func waitQuiescent(t *testing.T, p *netport.Port) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := p.Stats.RxDatagrams.Load()
	for {
		time.Sleep(50 * time.Millisecond)
		cur := p.Stats.RxDatagrams.Load()
		if cur == prev {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("port never quiesced: rx_datagrams still moving (%d)", cur)
		}
		prev = cur
	}
}

// TestE2ELoopbackPipeline is the acceptance path: pktgen → UDP loopback
// → netport batched ingress (SO_REUSEPORT kernel fan-out on Linux, the
// software distributor elsewhere) → supervised 4-worker pipeline → tx
// socket. Asserts zero mbuf leaks, every worker seeing traffic (fan-out
// balance), exact datagram accounting, and forwarded frames reaching
// the sink.
func TestE2ELoopbackPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e loopback tier skipped in -short")
	}
	const (
		workers   = 4
		batchSize = 32
		flows     = 64
		sendCount = 20000
	)
	sinkAddr, sinkGot := sinkListen(t)
	rec := telemetry.NewRecorder(1024)
	port, err := netport.Open(netport.Config{
		Listen:    "127.0.0.1:0",
		Queues:    workers,
		RingSize:  1024,
		BatchSize: batchSize,
		ReusePort: true,                  // kernel fan-out on Linux; silent distributor fallback elsewhere
		PollWait:  20 * time.Millisecond, // 8 idle polls = 160ms end-of-traffic grace
		TxTarget:  sinkAddr,
		Recorder:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", port.PoolAvailable)
	t.Cleanup(func() { port.Close() }) // LIFO: Close settles the pool before leakcheck reads it

	gen := &netport.Pktgen{
		Target:  port.Addr().String(),
		Base:    dpdk.DefaultSpec(),
		Flows:   flows,
		Sockets: 32,    // outer source-port entropy for the REUSEPORT hash
		PPS:     40000, // paced under the rx loop's drain rate: kernel socket-buffer drops stay out of the accounting
		Count:   sendCount,
	}
	genDone := make(chan error, 1)
	go func() {
		_, err := gen.Run(nil)
		genDone <- err
	}()

	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: batchSize,
		NewDirect: e2ePipeline(t),
		Supervise: true,
	}
	stats, err := r.Run(sendCount) // traffic end, not the batch budget, terminates the run
	if err != nil {
		t.Fatal(err)
	}
	if err := <-genDone; err != nil {
		t.Fatal(err)
	}
	waitQuiescent(t, port)

	// Exact accounting: every datagram read off the socket was delivered
	// or counted under exactly one drop cause.
	rx := port.Stats.RxDatagrams.Load()
	delivered := port.Stats.RxPackets.Load()
	drops := port.Stats.RingFull.Load() + port.Stats.ParseError.Load() + port.Stats.PoolEmpty.Load()
	if delivered+drops != rx {
		t.Fatalf("accounting: rx_datagrams=%d != delivered=%d + drops=%d", rx, delivered, drops)
	}
	if port.Stats.ParseError.Load() != 0 || port.Stats.PoolEmpty.Load() != 0 {
		t.Fatalf("well-formed paced traffic shed: parse_error=%d pool_empty=%d",
			port.Stats.ParseError.Load(), port.Stats.PoolEmpty.Load())
	}
	if delivered == 0 {
		t.Fatal("no datagrams crossed the loopback into the pipeline")
	}

	// The pipeline processed what the port delivered, minus at most what
	// Run's final Drain reclaimed from the rings after the workers quit.
	if got := stats.Packets + stats.Drops; got > delivered {
		t.Fatalf("pipeline accounted %d packets, port delivered only %d", got, delivered)
	}
	t.Logf("e2e: sent=%d rx=%d delivered=%d pipeline=%d (fw-dropped %d) tx=%d sink=%d ring_full=%d",
		sendCount, rx, delivered, stats.Packets, stats.Drops,
		port.Stats.TxPackets.Load(), sinkGot.Load(), port.Stats.RingFull.Load())

	// RSS balance: 64 flows across 4 queues — every worker must have
	// seen traffic, or flow steering is broken.
	for w, ws := range r.WorkerSnapshots() {
		if ws.Packets == 0 {
			t.Errorf("worker %d processed no packets: RSS steering starved its queue", w)
		}
	}

	// Egress: forwarded frames left through the tx socket and reached the
	// sink (the kernel may shed some on the sink's receive buffer, so the
	// bound is one-sided).
	if tx := port.Stats.TxPackets.Load(); tx == 0 {
		t.Fatal("pipeline forwarded nothing")
	} else if got := sinkGot.Load(); got == 0 || got > tx {
		t.Fatalf("sink saw %d datagrams, port transmitted %d", got, tx)
	}
}

// TestE2ETraceLoopback is the tracing acceptance path: the full four-NF
// pipeline (parse → firewall → maglev → session) under live loopback
// traffic with a sampling tracer armed at netport ingress. Asserts that
// /debug/traces serves at least one complete trace whose latency vector
// covers ingress, all four NF stages, the supervised mailbox hops, and
// TX — and that span conservation (armed == completed + aborted) holds
// once the port closes.
func TestE2ETraceLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e loopback tier skipped in -short")
	}
	const (
		workers   = 2
		batchSize = 32
		sendCount = 8000
	)
	rec := telemetry.NewRecorder(1024)
	tracer := trace.New(trace.Config{SampleEvery: 16, Ring: 64, Recorder: rec})
	t.Cleanup(func() { // registered first -> runs last, after port.Close drains
		armed, completed, aborted := tracer.Counts()
		t.Logf("trace conservation: armed=%d completed=%d aborted=%d", armed, completed, aborted)
		if armed != completed+aborted {
			t.Errorf("trace span leak: armed %d != completed %d + aborted %d",
				armed, completed, aborted)
		}
	})
	sinkAddr, _ := sinkListen(t)
	port, err := netport.Open(netport.Config{
		Listen:    "127.0.0.1:0",
		Queues:    workers,
		RingSize:  1024,
		BatchSize: batchSize,
		ReusePort: true,
		PollWait:  20 * time.Millisecond,
		TxTarget:  sinkAddr,
		Recorder:  rec,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "traced netport", port.PoolAvailable)
	t.Cleanup(func() { port.Close() })

	gen := &netport.Pktgen{
		Target:  port.Addr().String(),
		Base:    dpdk.DefaultSpec(),
		Flows:   64,
		Sockets: 32,
		PPS:     40000,
		Count:   sendCount,
	}
	genDone := make(chan error, 1)
	go func() {
		_, err := gen.Run(nil)
		genDone <- err
	}()

	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		t.Fatal(err)
	}
	backends := []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: batchSize,
		Supervise: true, // mailbox hops must appear in the traces
		Tracer:    tracer,
		NewDirect: func(w int) *netbricks.Pipeline {
			lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return netbricks.NewPipeline()
			}
			return netbricks.NewPipeline(
				netbricks.Parse{},
				firewall.Operator{DB: db},
				maglev.Operator{LB: lb},
				session.Operator{T: session.NewTable()},
			)
		},
	}
	if _, err := r.Run(sendCount); err != nil {
		t.Fatal(err)
	}
	if err := <-genDone; err != nil {
		t.Fatal(err)
	}
	waitQuiescent(t, port)

	armed, completed, _ := tracer.Counts()
	if armed == 0 {
		t.Fatal("no spans armed: the ingress sampler never fired")
	}
	if completed == 0 {
		t.Fatal("no spans completed: no traced packet reached TX")
	}

	// The acceptance bar: at least one dumped trace carries a full
	// per-stage latency vector across every hop of the supervised path.
	wantStages := []trace.Stage{
		trace.StageIngress, trace.StageMailboxSend, trace.StageMailboxRecv,
		trace.StageParse, trace.StageFirewall, trace.StageMaglev,
		trace.StageSession, trace.StageTx,
	}
	full := 0
	for _, rcd := range tracer.Dump() {
		ok := true
		for _, st := range wantStages {
			if rcd.Stamps[st] == 0 {
				ok = false
				break
			}
		}
		if ok {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no trace visited every stage; dumped %d traces", len(tracer.Dump()))
	}
	t.Logf("traces: %d armed, %d completed, %d with the full %d-stage vector",
		armed, completed, full, len(wantStages))

	// The admin surface's /debug/traces body renders the same vectors as JSON.
	var w bytes.Buffer
	if err := tracer.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			ID      uint64 `json:"id"`
			TotalNS int64  `json:"total_ns"`
			Stages  []struct {
				Stage string `json:"stage"`
				Nanos int64  `json:"nanos"`
			} `json:"stages"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(w.Bytes(), &body); err != nil {
		t.Fatalf("/debug/traces JSON: %v", err)
	}
	if !body.Enabled || len(body.Traces) == 0 {
		t.Fatalf("/debug/traces: enabled=%v traces=%d", body.Enabled, len(body.Traces))
	}
	fullJSON := 0
	for _, tr := range body.Traces {
		if len(tr.Stages) == len(wantStages) && tr.TotalNS > 0 {
			fullJSON++
		}
	}
	if fullJSON == 0 {
		t.Fatal("/debug/traces serves no complete per-stage latency vector")
	}

	// /debug/alloc attributes the traced packets' allocation deltas.
	var aw bytes.Buffer
	if err := tracer.WriteAllocJSON(&aw); err != nil {
		t.Fatal(err)
	}
	var alloc struct {
		Enabled bool `json:"enabled"`
		Stages  []struct {
			Stage   string `json:"stage"`
			Samples uint64 `json:"samples"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(aw.Bytes(), &alloc); err != nil {
		t.Fatalf("/debug/alloc JSON: %v", err)
	}
	sampled := uint64(0)
	for _, row := range alloc.Stages {
		sampled += row.Samples
	}
	if !alloc.Enabled || sampled == 0 {
		t.Fatalf("/debug/alloc: enabled=%v total samples=%d", alloc.Enabled, sampled)
	}
}

// TestE2EOverloadSheds drives deliberate 2x-style overload: tiny rings
// and no workers draining, so every ring fills to capacity and the
// remainder is shed ring_full — exactly, datagram for datagram. Then the
// workers start, the backlog drains, backpressure clears, and the pool
// balances.
func TestE2EOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e loopback tier skipped in -short")
	}
	const (
		queues   = 2
		ringSize = 16 // power of two: ring capacity == RingSize
		blast    = 2000
	)
	rec := telemetry.NewRecorder(4096)
	port, err := netport.Open(netport.Config{
		Listen:   "127.0.0.1:0",
		Queues:   queues,
		RingSize: ringSize,
		PollWait: 10 * time.Millisecond,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport under overload", port.PoolAvailable)
	t.Cleanup(func() { port.Close() })

	// Blast unpaced with nobody polling: the rings must fill and hold.
	gen := &netport.Pktgen{
		Target: port.Addr().String(),
		Base:   dpdk.DefaultSpec(),
		Flows:  64,
		Count:  blast,
	}
	if _, err := gen.Run(nil); err != nil {
		t.Fatal(err)
	}
	waitQuiescent(t, port)

	// Exact shed accounting: both rings full, everything else ring_full.
	rx := port.Stats.RxDatagrams.Load()
	delivered := port.Stats.RxPackets.Load()
	if want := uint64(queues * ringSize); delivered != want {
		t.Fatalf("delivered %d packets, want exactly the ring capacity %d", delivered, want)
	}
	if shed := port.Stats.RingFull.Load(); shed != rx-delivered {
		t.Fatalf("ring_full=%d, want rx_datagrams-delivered=%d", shed, rx-delivered)
	} else if shed == 0 {
		t.Fatal("overload blast shed nothing: rings never filled")
	}
	if port.Stats.ParseError.Load() != 0 || port.Stats.PoolEmpty.Load() != 0 {
		t.Fatalf("unexpected shed causes: parse_error=%d pool_empty=%d",
			port.Stats.ParseError.Load(), port.Stats.PoolEmpty.Load())
	}
	// Both queues sit above the high watermark.
	if bp := port.Stats.Backpressure.Load(); bp != int64(queues) {
		t.Fatalf("backpressure gauge %v, want %d (both rings full)", bp, queues)
	}
	// Every shed datagram is in the flight recorder as an EvDrop.
	var drops int
	for _, ev := range rec.Dump() {
		if ev.Kind == telemetry.EvDrop && ev.Arg == netport.DropRingFull {
			drops++
		}
	}
	if uint64(drops) != port.Stats.RingFull.Load() {
		t.Fatalf("flight recorder holds %d ring_full drops, counters say %d", drops, port.Stats.RingFull.Load())
	}

	// Now the workers arrive: drain the backlog through the pipeline.
	// Backpressure must clear and every mbuf must come home.
	r := &netbricks.ShardedRunner{
		Port: port, Workers: queues, BatchSize: 8,
		NewDirect: e2ePipeline(t),
	}
	stats, err := r.Run(blast)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Packets + stats.Drops; got != delivered {
		t.Fatalf("drain processed %d packets, rings held %d", got, delivered)
	}
	if bp := port.Stats.Backpressure.Load(); bp != 0 {
		t.Fatalf("backpressure gauge still %v after drain", bp)
	}
	// leakcheck asserts pool conservation at cleanup, after Close.
}
