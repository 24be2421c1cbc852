// Package dpdk simulates the slice of DPDK the paper's evaluation uses: a
// poll-mode port that hands out packets in batches of user-defined size
// and takes them back on transmit.
//
// The paper's testbed retrieves packets from DPDK on a 10G NIC. That
// hardware is not available here, so this package substitutes a synthetic
// equivalent that preserves the measured code path: buffers come from a
// fixed mempool, RxBurst fills a caller-supplied batch (the cache-pressure
// source the paper attributes the 90→122-cycle growth to), the pipeline
// processes the batch to completion, and TxBurst recycles the buffers.
// Traffic content is produced by pluggable deterministic generators
// (uniform and zipfian flow mixes) so experiments are reproducible.
package dpdk

import (
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/mempool"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// MbufSize is the fixed buffer size of a simulated mbuf, matching DPDK's
// conventional 2 KiB data room.
const MbufSize = 2048

// Generator produces the next synthetic packet's parameters.
//
// Concurrency contract: a port serializes every NextSpec call it makes —
// under the distributor lock in steered mode (fillSteered), under the
// owning queue's lock in partitioned mode (fillLocal) — so handing a
// stateful generator to ONE port is safe no matter how many worker
// goroutines poll that port's queues concurrently. What is not safe is
// sharing one stateful generator (UniformFlows, ZipfFlows, cycleSpecs)
// between two ports, or calling NextSpec yourself while a port owns the
// generator: nothing serializes across ports. Stateless generators such
// as FixedFlow are exempt and may be shared freely. The race regression
// tests in generator_race_test.go pin both halves of this contract.
type Generator interface {
	// NextSpec fills spec with the next packet description.
	NextSpec(spec *packet.BuildSpec)
}

// FixedFlow generates every packet from the same flow — the lightest
// generator, used by the Figure 2 null-filter measurements where content
// is irrelevant. NextSpec only reads Spec, so one FixedFlow may be
// shared across any number of ports and goroutines.
type FixedFlow struct {
	Spec packet.BuildSpec
}

// NextSpec implements Generator.
func (g *FixedFlow) NextSpec(spec *packet.BuildSpec) { *spec = g.Spec }

// UniformFlows cycles round-robin through n distinct flows derived from a
// base spec.
type UniformFlows struct {
	Base  packet.BuildSpec
	Flows int
	next  int
}

// NextSpec implements Generator.
func (g *UniformFlows) NextSpec(spec *packet.BuildSpec) {
	*spec = g.Base
	i := g.next
	g.next = (g.next + 1) % max(g.Flows, 1)
	spec.Tuple.SrcIP += packet.IPv4(i)
	spec.Tuple.SrcPort += uint16(i % 50000)
}

// ZipfFlows draws flows from a zipfian popularity distribution, the
// standard skewed traffic model for load-balancer studies (a few elephant
// flows, many mice).
type ZipfFlows struct {
	Base  packet.BuildSpec
	Flows int
	zipf  *rand.Zipf
}

// NewZipfFlows creates a zipfian generator over flows flows with skew s
// (s > 1; 1.1 is mild, 2 is heavy) and a deterministic seed.
func NewZipfFlows(base packet.BuildSpec, flows int, s float64, seed int64) *ZipfFlows {
	if flows <= 0 {
		panic("dpdk: flows must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfFlows{
		Base:  base,
		Flows: flows,
		zipf:  rand.NewZipf(rng, s, 1, uint64(flows-1)),
	}
}

// NextSpec implements Generator.
func (g *ZipfFlows) NextSpec(spec *packet.BuildSpec) {
	*spec = g.Base
	i := g.zipf.Uint64()
	spec.Tuple.SrcIP += packet.IPv4(i)
	spec.Tuple.SrcPort += uint16(i % 50000)
}

// PortStats holds cumulative port counters — telemetry cells, written
// on the data path with uncontended atomic adds and readable by a
// metrics scrape at any time.
type PortStats struct {
	RxPackets telemetry.Counter
	RxBytes   telemetry.Counter
	TxPackets telemetry.Counter
	TxBytes   telemetry.Counter
	AllocFail telemetry.Counter
	// RxMissed counts packets the steering path dropped because the
	// destination queue's descriptor ring was full (the rx_missed
	// counter of real NICs): the owning worker was not draining fast
	// enough.
	RxMissed telemetry.Counter
}

// Port is a simulated poll-mode NIC port with one or more receive
// queues. Multi-queue ports steer flows to queues RSS-style: every
// packet of one flow lands on the same queue, so one worker per queue
// sees complete flows.
type Port struct {
	Index int
	pool  *mempool.Pool[packet.Packet]
	gen   Generator // shared traffic source (single-queue and steered modes)

	reta     *packet.RETA
	rss      *packet.RSSTable // the port key's hash table, resolved once
	steered  bool             // software-RSS distributor mode (shared gen, per-queue rings)
	queues   []*rxQueue
	fillMu   sync.Mutex       // serializes the shared generator on the steered fill path
	fillSpec packet.BuildSpec // fillSteered scratch, guarded by fillMu (see rxQueue.spec)

	// Stats is exported for harnesses.
	Stats PortStats
}

// Config parameterizes a port.
type Config struct {
	Index    int
	PoolSize int // number of mbufs; default 4096
	Gen      Generator

	// RxQueues is the number of receive queues (default 1). With more
	// than one queue the port steers flows by RSS hash: either in
	// hardware style — QueueGen supplies an independent traffic source
	// per queue whose flows already belong to that queue (see
	// NewRSSPartition) — or, when QueueGen is nil, through a software
	// distributor that hashes packets from Gen and fans them out to
	// per-queue rings.
	RxQueues int
	// QueueGen, when set, supplies the traffic source for each queue.
	QueueGen func(queue int) Generator
	// CacheSize bounds each queue's local mempool cache (default
	// mempool.DefaultCacheSize, clamped to the pool size).
	CacheSize int
	// RxRingSize bounds each queue's descriptor ring in steered mode
	// (default 512, rounded up to a power of two).
	RxRingSize int
}

// NewPort creates a port backed by its own mempool and generator(s).
func NewPort(cfg Config) *Port {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4096
	}
	if cfg.RxQueues <= 0 {
		cfg.RxQueues = 1
	}
	if cfg.Gen == nil && cfg.QueueGen == nil {
		cfg.Gen = &FixedFlow{Spec: DefaultSpec()}
	}
	if cfg.RxRingSize <= 0 {
		cfg.RxRingSize = 512
	}
	p := &Port{
		Index: cfg.Index,
		gen:   cfg.Gen,
		rss:   packet.RSSTableFor(packet.DefaultRSSKey),
		reta:  packet.NewRETA(cfg.RxQueues, 0),
		// One data arena, headers made on first use (the layout netport uses).
		pool: packet.NewPool(cfg.PoolSize, MbufSize),
	}
	p.steered = cfg.RxQueues > 1 && cfg.QueueGen == nil
	for q := 0; q < cfg.RxQueues; q++ {
		rq := &rxQueue{cache: mempool.NewCache(p.pool, cfg.CacheSize)}
		switch {
		case cfg.QueueGen != nil:
			rq.gen = cfg.QueueGen(q)
		case !p.steered:
			rq.gen = cfg.Gen
		default:
			rq.ring = mempool.NewRing[*packet.Packet](cfg.RxRingSize)
		}
		p.queues = append(p.queues, rq)
	}
	return p
}

// DefaultSpec is a representative 64-byte-payload UDP flow.
func DefaultSpec() packet.BuildSpec {
	return packet.BuildSpec{
		SrcMAC: packet.MAC{0x02, 0, 0, 0, 0, 0x01},
		DstMAC: packet.MAC{0x02, 0, 0, 0, 0, 0x02},
		Tuple: packet.FiveTuple{
			SrcIP:   packet.Addr(10, 0, 0, 1),
			DstIP:   packet.Addr(10, 99, 0, 1),
			SrcPort: 40000,
			DstPort: 80,
			Proto:   packet.ProtoUDP,
		},
		PayloadLen: 64,
	}
}

// RxBurst fills out with up to len(out) freshly generated packets,
// returning the count. Buffers come from the port mempool; the caller owns
// them until TxBurst or Free returns them. On a multi-queue port this is
// equivalent to polling queue 0.
func (p *Port) RxBurst(out []*packet.Packet) int {
	return p.RxBurstQueue(0, out)
}

// TxBurst transmits the packets (accounting only — there is no wire) and
// recycles their buffers into the mempool. It returns the number sent,
// which is always len(pkts) in the simulation.
func (p *Port) TxBurst(pkts []*packet.Packet) int {
	for _, pkt := range pkts {
		if pkt == nil {
			continue
		}
		p.Stats.TxPackets.Add(1)
		p.Stats.TxBytes.Add(uint64(pkt.Len()))
		p.pool.Put(pkt)
	}
	return len(pkts)
}

// Free returns packets to the mempool without counting them as
// transmitted (drops).
func (p *Port) Free(pkts []*packet.Packet) {
	for _, pkt := range pkts {
		if pkt != nil {
			p.pool.Put(pkt)
		}
	}
}

// RegisterMetrics exports the port's counters, its mempool, and every
// receive queue's cache (and, in steered mode, descriptor-ring depth)
// on reg. base labels every series; queues add a "queue" label. Gauges
// that need the queue lock take it at scrape time only.
func (p *Port) RegisterMetrics(reg *telemetry.Registry, base telemetry.Labels) {
	reg.RegisterCounter("port_rx_packets_total", base, &p.Stats.RxPackets)
	reg.RegisterCounter("port_rx_bytes_total", base, &p.Stats.RxBytes)
	reg.RegisterCounter("port_tx_packets_total", base, &p.Stats.TxPackets)
	reg.RegisterCounter("port_tx_bytes_total", base, &p.Stats.TxBytes)
	reg.RegisterCounter("port_alloc_fail_total", base, &p.Stats.AllocFail)
	reg.RegisterCounter("port_rx_missed_total", base, &p.Stats.RxMissed)
	p.pool.RegisterMetrics(reg, base)
	for q, rq := range p.queues {
		rq := rq
		labels := base.With("queue", strconv.Itoa(q))
		rq.cache.RegisterMetrics(reg, labels, func() float64 {
			rq.mu.Lock()
			defer rq.mu.Unlock()
			return float64(rq.cache.Len())
		})
		if rq.ring != nil {
			ring := rq.ring
			reg.RegisterGaugeFunc("port_rx_ring_depth", labels, func() float64 {
				return float64(ring.Len())
			})
		}
	}
}

// PoolAvailable reports free mbufs — in the shared pool plus every
// queue's local cache — for leak assertions in tests. Cached buffers are
// free (a worker can allocate them without touching the pool); only
// buffers held by in-flight packets are excluded.
func (p *Port) PoolAvailable() int {
	n := p.pool.Available()
	for _, rq := range p.queues {
		rq.mu.Lock()
		n += rq.cache.Len()
		rq.mu.Unlock()
	}
	return n
}
