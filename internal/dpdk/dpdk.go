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
	"strconv"

	"repro/internal/mempool"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// MbufSize is the size of a simulated mbuf's large data room, DPDK's
// conventional 2 KiB, and so the longest frame a generator may ask for.
// Every mbuf also has a small room, where frames of up to 128 bytes go
// (packet.NewPool).
const MbufSize = 2048

// Generator produces the next synthetic packet's parameters.
//
// Concurrency contract: a port calls a queue's generator only under that
// queue's lock, so a stateful generator (UniformFlows, NewZipfFlows and
// the partition sources) is safe as long as it feeds ONE queue of ONE port,
// however many goroutines poll the port. What is not safe is sharing one
// stateful generator between queues or ports, or calling NextSpec
// yourself while a port owns the generator: nothing serializes across
// queues. Stateless generators such as FixedFlow are exempt and may be
// shared freely. The race regression tests in generator_race_test.go pin
// both halves of this contract.
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

// NewZipfFlows draws flows flows derived from base (the UniformFlows
// walk) from a zipfian popularity distribution with skew s (s > 1; 1.1
// is mild, 2 is heavy) and a deterministic seed — the standard skewed
// traffic model for load-balancer studies (a few elephant flows, many
// mice). It is the one-queue case of NewZipfPartition.
func NewZipfFlows(base packet.BuildSpec, flows int, s float64, seed int64) Generator {
	return NewZipfPartition(base, flows, 1, s, seed)(0)
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
}

// Port is a simulated poll-mode NIC port with one or more receive
// queues. Every queue has its own traffic source; on a multi-queue port
// each source carries only the flows RSS steers to its queue, so every
// packet of one flow lands on the same queue and one worker per queue
// sees complete flows.
type Port struct {
	pool   *mempool.Pool[packet.Packet]
	queues []*rxQueue

	// Stats is exported for harnesses.
	Stats PortStats
}

// Config parameterizes a port.
type Config struct {
	PoolSize int // number of mbufs; default 4096
	// Gen is the traffic source of a one-queue port (default: one
	// FixedFlow of DefaultSpec).
	Gen Generator

	// RxQueues is the number of receive queues (default 1). A port with
	// more than one takes QueueGen instead of Gen.
	RxQueues int
	// QueueGen supplies each queue's own traffic source, whose flows
	// already hash to that queue — hardware RSS, precomputed (see
	// NewRSSPartition and NewZipfPartition). A nil source is a queue no
	// flow hashes to: it delivers nothing.
	QueueGen func(queue int) Generator
	// CacheSize bounds each queue's local mempool cache (default
	// mempool.DefaultCacheSize, clamped to the pool size).
	CacheSize int
}

// NewPort creates a port backed by its own mempool and generator(s). The
// mempool has netport's layout (packet.NewPool): two data arenas, one of
// 128-byte rooms and one of MbufSize rooms, and headers made on first
// use, so a made mbuf keeps resident only the rooms its frames have used
// — 128 bytes for every frame of DefaultSpec.
func NewPort(cfg Config) *Port {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4096
	}
	if cfg.RxQueues <= 0 {
		cfg.RxQueues = 1
	}
	if cfg.QueueGen == nil {
		if cfg.RxQueues > 1 {
			panic("dpdk: a multi-queue port takes QueueGen, one source per queue (NewRSSPartition, NewZipfPartition)")
		}
		gen := cfg.Gen
		if gen == nil {
			gen = &FixedFlow{Spec: DefaultSpec()}
		}
		cfg.QueueGen = func(int) Generator { return gen }
	}
	p := &Port{pool: packet.NewPool(cfg.PoolSize, MbufSize)}
	for q := 0; q < cfg.RxQueues; q++ {
		p.queues = append(p.queues, &rxQueue{
			gen:   cfg.QueueGen(q),
			cache: mempool.NewCache(p.pool, cfg.CacheSize),
		})
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
// them until TxBurst or Free returns them. RxBurst, TxBurst and Free are
// queue 0's RxBurstQueue, TxBurstQueue and FreeQueue.
func (p *Port) RxBurst(out []*packet.Packet) int { return p.RxBurstQueue(0, out) }

// TxBurst transmits the packets (accounting only — there is no wire) and
// recycles their buffers. It returns the number sent, which is always
// len(pkts) in the simulation.
func (p *Port) TxBurst(pkts []*packet.Packet) int { return p.TxBurstQueue(0, pkts) }

// RegisterMetrics exports the port's counters, its mempool, and every
// receive queue's cache on reg. base labels every series; queues add a "queue" label. Gauges
// that need the queue lock take it at scrape time only.
func (p *Port) RegisterMetrics(reg *telemetry.Registry, base telemetry.Labels) {
	reg.RegisterCounter("port_rx_packets_total", base, &p.Stats.RxPackets)
	reg.RegisterCounter("port_rx_bytes_total", base, &p.Stats.RxBytes)
	reg.RegisterCounter("port_tx_packets_total", base, &p.Stats.TxPackets)
	reg.RegisterCounter("port_tx_bytes_total", base, &p.Stats.TxBytes)
	reg.RegisterCounter("port_alloc_fail_total", base, &p.Stats.AllocFail)
	p.pool.RegisterMetrics(reg, base)
	for q, rq := range p.queues {
		rq := rq
		rq.cache.RegisterMetrics(reg, base.With("queue", strconv.Itoa(q)), func() float64 {
			rq.mu.Lock()
			defer rq.mu.Unlock()
			return float64(rq.cache.Len())
		})
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
