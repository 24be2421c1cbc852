// Loopback throughput bench: pktgen → kernel UDP loopback → netport →
// supervised 4-worker sharded pipeline (parse → firewall → maglev).
// Unlike the in-process pipeline benches this pays for real syscalls on
// both sides of the port — amortized by recvmmsg/sendmmsg batches — so
// the number is a floor on what the runtime sustains with a kernel in
// the loop. The overload variant offers more than the pipeline drains
// into deliberately small rings, so shedding happens at the rings where
// the port's exact per-cause counters see it: shed_pps comes from
// ring_full/parse_error/pool_empty, not from inferred socket loss.
package netport_test

import (
	"testing"
	"time"

	"repro/internal/dpdk"
	"repro/internal/firewall"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/netport"
	"repro/internal/packet"
	"repro/internal/telemetry/trace"
)

// benchPipeline mirrors e2ePipeline without the testing.T plumbing.
func benchPipeline(b *testing.B) func(w int) *netbricks.Pipeline {
	b.Helper()
	db := firewall.NewDB(firewall.Deny)
	if _, err := db.AddRule(packet.Addr(10, 99, 0, 0), 16, firewall.Rule{ID: 1, Action: firewall.Allow}); err != nil {
		b.Fatal(err)
	}
	backends := []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
	}
	return func(w int) *netbricks.Pipeline {
		lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
		if err != nil {
			b.Errorf("worker %d: %v", w, err)
			return netbricks.NewPipeline()
		}
		return netbricks.NewPipeline(
			netbricks.Parse{},
			firewall.Operator{DB: db},
			maglev.Operator{LB: lb},
		)
	}
}

// benchOpts parameterizes one loopback bench configuration.
type benchOpts struct {
	pps     int // offered rate (0 = unpaced: the generator's ceiling)
	ring    int
	batch   int  // the port's syscall burst (pktgen always sends 64)
	sockets int  // pktgen source sockets (REUSEPORT entropy)
	reuse   bool // kernel fan-out instead of the software distributor
	sample  int  // trace one in this many ingress frames (0 = tracing off)
	frame   int  // frame length in bytes (0 = DefaultSpec's, which fits the small room)
}

func benchLoopback(b *testing.B, o benchOpts) {
	const workers = 4
	var tracer *trace.Tracer
	if o.sample > 0 {
		tracer = trace.New(trace.Config{SampleEvery: o.sample})
	}
	port, err := netport.Open(netport.Config{
		Listen:     "127.0.0.1:0",
		Queues:     workers,
		RingSize:   o.ring,
		BatchSize:  o.batch,
		ReusePort:  o.reuse,
		ReadBuffer: 1 << 20,
		PollWait:   2 * time.Millisecond, // short end-of-traffic grace: 8 idle polls = 16ms tail
		Tracer:     tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	base := dpdk.DefaultSpec()
	if o.frame > 0 {
		base.PayloadLen = o.frame - (packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen)
	}
	gen := &netport.Pktgen{
		Target:  port.Addr().String(),
		Base:    base,
		Flows:   64,
		Sockets: o.sockets,
		PPS:     o.pps,
		Count:   b.N,
	}
	r := &netbricks.ShardedRunner{
		Port: port, Workers: workers, BatchSize: o.batch,
		NewDirect: benchPipeline(b),
		Supervise: true,
		Tracer:    tracer,
	}

	b.ResetTimer()
	start := time.Now()
	genDone := make(chan error, 1)
	go func() {
		_, err := gen.Run(nil)
		genDone <- err
	}()
	stats, err := r.Run(b.N)
	elapsed := time.Since(start)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if err := <-genDone; err != nil {
		b.Fatal(err)
	}

	delivered := port.Stats.RxPackets.Load()
	// Shed load from the port's exact per-cause counters — what ingress
	// consciously dropped, with ring_full carrying the overload story.
	shed := port.Stats.RingFull.Load() + port.Stats.ParseError.Load() + port.Stats.PoolEmpty.Load()
	b.ReportMetric(float64(stats.Packets)/elapsed.Seconds(), "pps")
	b.ReportMetric(float64(shed)/elapsed.Seconds(), "shed_pps")
	if batches := port.Stats.RxBatches.Load(); batches > 0 {
		// Realized burst occupancy: datagrams each recvmmsg carried.
		b.ReportMetric(float64(port.Stats.RxDatagrams.Load())/float64(batches), "dgrams_per_rxbatch")
	}
	// Loss the kernel ate at the socket buffer, invisible to the port's
	// own exact accounting (sent minus everything the port read).
	b.ReportMetric(float64(uint64(b.N)-delivered-shed)/float64(b.N), "sockloss_ratio")
	if tracer != nil {
		_, completed, _ := tracer.Counts()
		b.ReportMetric(float64(completed), "traces")
	}

	if err := port.Close(); err != nil {
		b.Fatal(err)
	}
	if got := port.PoolAvailable(); got != port.PoolCapacity() {
		b.Fatalf("pool: %d of %d mbufs after close — the bench leaked", got, port.PoolCapacity())
	}
}

// BenchmarkNetportLoopback is the headline number: kernel REUSEPORT
// fan-out, 64-datagram syscall bursts, offered load paced near the
// loopback ceiling of this class of machine. The acceptance floor
// guarded by `make bench-gate` sits 20% under the recorded result.
func BenchmarkNetportLoopback(b *testing.B) {
	benchLoopback(b, benchOpts{pps: 450000, ring: 2048, batch: 64, sockets: 16, reuse: true})
}

// BenchmarkNetportLoopbackLarge is the headline configuration with
// 1400-byte frames, each copied into its mbuf's MbufSize room instead of
// the small one: `make alloc-gate` holds it to 0 allocs/op too.
func BenchmarkNetportLoopbackLarge(b *testing.B) {
	benchLoopback(b, benchOpts{pps: 450000, ring: 2048, batch: 64, sockets: 16, reuse: true, frame: 1400})
}

// BenchmarkNetportLoopbackTraced is the headline configuration with the
// sampled tracer armed at 1/1024 — the overhead bar from the tracing
// design: `make bench-gate` asserts this sustains >= 98% of the
// untraced BenchmarkNetportLoopback pps from the same run.
func BenchmarkNetportLoopbackTraced(b *testing.B) {
	benchLoopback(b, benchOpts{pps: 450000, ring: 2048, batch: 64, sockets: 16, reuse: true, sample: 1024})
}

// BenchmarkNetportLoopbackOverload offers an unpaced firehose into
// small rings: the rings — not the kernel socket buffer — are the
// bottleneck, so the overload shows up in ring_full and shed_pps is
// nonzero from exact counters while the pipeline forwards at its own
// pace.
func BenchmarkNetportLoopbackOverload(b *testing.B) {
	benchLoopback(b, benchOpts{pps: 500000, ring: 256, batch: 64, sockets: 16, reuse: true})
}
