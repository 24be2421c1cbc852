// Multi-queue receive: the RSS slice of the simulated NIC.
//
// Real NICs spread flows across receive queues by hashing the 5-tuple
// (Toeplitz) and indexing a redirection table; one core polls each queue
// and therefore sees every packet of the flows assigned to it. The
// simulated port has one receive path that gives the same result: every
// queue draws from its own traffic source, and on a multi-queue port
// that source holds only the flows RSS steers to its queue (see
// NewRSSPartition and NewZipfPartition). Steering is paid once, when the
// flows are partitioned, never per packet, and the invariant the sharded
// pipeline runtime depends on holds by construction: packets of one flow
// always surface on the same queue.
package dpdk

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mempool"
	"repro/internal/packet"
)

// rxQueue is one receive queue: its traffic source and a local mempool
// cache for buffer recycling. The mutex makes each queue's operations
// atomic; in the intended one-worker-per-queue deployment it is
// uncontended.
type rxQueue struct {
	mu    sync.Mutex
	gen   Generator // nil for a queue no flow hashes to
	cache *mempool.Cache[packet.Packet]

	// spec is RxBurstQueue's scratch, a struct field because a
	// stack-local BuildSpec passed through the Generator interface
	// escapes — one heap allocation per burst on the receive hot path.
	// Guarded by mu.
	spec packet.BuildSpec
}

// Queues reports the number of receive queues.
func (p *Port) Queues() int { return len(p.queues) }

// RxBurstQueue fills out with up to len(out) packets from receive queue
// q's own source, returning the count. Buffers come from the queue's
// mempool cache, so the shared pool is only touched in bursts. A short
// return means the pool ran dry (counted in AllocFail); a zero return
// from a queue no flow hashes to is not end-of-stream either — callers
// poll again, exactly like a PMD. Each frame is built in place in the
// smallest room of its mbuf that holds it (packet.Packet.Room). A spec
// that Build rejects, or whose frame is longer than MbufSize, is a
// generator bug and panics.
//
// Each queue is safe to poll concurrently with other queues; polling the
// same queue from two goroutines is serialized but pointless (and
// destroys flow affinity for the callers).
func (p *Port) RxBurstQueue(q int, out []*packet.Packet) int {
	rq := p.queue(q)
	rq.mu.Lock()
	defer rq.mu.Unlock()
	if rq.gen == nil {
		return 0
	}
	for n := range out {
		pkt, err := rq.cache.Get()
		if err != nil {
			p.Stats.AllocFail.Add(1)
			return n
		}
		rq.gen.NextSpec(&rq.spec)
		size, err := rq.spec.FrameLen()
		if err == nil && size > MbufSize {
			err = fmt.Errorf("%d-byte frame exceeds the %d-byte mbuf", size, MbufSize)
		}
		if err != nil {
			rq.cache.Put(pkt)
			panic(fmt.Sprintf("dpdk: generator produced invalid spec: %v", err))
		}
		// FrameLen vetted the spec, so Build cannot fail, and the room
		// holds the frame, so Build writes it in place.
		pkt.Data, _ = packet.Build(pkt.Room(size), rq.spec)
		pkt.Reset()
		p.Stats.RxPackets.Add(1)
		p.Stats.RxBytes.Add(uint64(pkt.Len()))
		out[n] = pkt
	}
	return len(out)
}

// TxBurstQueue transmits pkts from the worker owning queue q, recycling
// buffers through the queue's local cache instead of the shared pool —
// the contention-free hot path of the sharded runtime.
func (p *Port) TxBurstQueue(q int, pkts []*packet.Packet) int {
	rq := p.queue(q)
	rq.mu.Lock()
	for _, pkt := range pkts {
		if pkt == nil {
			continue
		}
		p.Stats.TxPackets.Add(1)
		p.Stats.TxBytes.Add(uint64(pkt.Len()))
		rq.cache.Put(pkt)
	}
	rq.mu.Unlock()
	return len(pkts)
}

// FreeQueue returns packets to queue q's local cache without counting
// them as transmitted (drops).
func (p *Port) FreeQueue(q int, pkts []*packet.Packet) {
	rq := p.queue(q)
	rq.mu.Lock()
	for _, pkt := range pkts {
		if pkt != nil {
			rq.cache.Put(pkt)
		}
	}
	rq.mu.Unlock()
}

// Drain consolidates every buffer back into the shared pool by flushing
// the queue caches. Runners call this on shutdown so pool accounting
// balances; the port is reusable afterwards.
func (p *Port) Drain() {
	for _, rq := range p.queues {
		rq.mu.Lock()
		rq.cache.Flush()
		rq.mu.Unlock()
	}
}

func (p *Port) queue(q int) *rxQueue {
	if q < 0 || q >= len(p.queues) {
		panic(fmt.Sprintf("dpdk: queue %d out of range (port has %d)", q, len(p.queues)))
	}
	return p.queues[q]
}

// cycleSpecs round-robins a fixed list of flow specs (one RSS
// partition's share of the traffic).
type cycleSpecs struct {
	specs []packet.BuildSpec
	next  int
}

// NextSpec implements Generator.
func (g *cycleSpecs) NextSpec(spec *packet.BuildSpec) {
	*spec = g.specs[g.next]
	g.next = (g.next + 1) % len(g.specs)
}

// zipfSpecs draws from a fixed list of flow specs with zipfian
// popularity (one RSS partition's share of a skewed mix).
type zipfSpecs struct {
	specs []packet.BuildSpec
	zipf  *rand.Zipf
}

// NextSpec implements Generator.
func (g *zipfSpecs) NextSpec(spec *packet.BuildSpec) { *spec = g.specs[g.zipf.Uint64()] }

// partition derives flows distinct flows from base — flow i adds i to
// the source address and i mod 50000 to the source port — and splits
// them across queues by RSS hash and redirection table, keeping each
// queue's flows in flow order.
func partition(base packet.BuildSpec, flows, queues int) [][]packet.BuildSpec {
	if flows <= 0 {
		panic("dpdk: flows must be positive")
	}
	if queues <= 0 {
		panic("dpdk: queues must be positive")
	}
	reta := packet.NewRETA(queues, 0)
	rss := packet.RSSTableFor(packet.DefaultRSSKey)
	parts := make([][]packet.BuildSpec, queues)
	for i := 0; i < flows; i++ {
		spec := base
		spec.Tuple.SrcIP += packet.IPv4(i)
		spec.Tuple.SrcPort += uint16(i % 50000)
		q := reta.Queue(rss.HashTuple(spec.Tuple))
		parts[q] = append(parts[q], spec)
	}
	return parts
}

// NewRSSPartition partitions flows distinct flows derived from base
// across queues the way hardware RSS would deliver them. The returned
// factory suits Config.QueueGen: each queue round-robins only its own
// flows. Queues that no flow hashes to produce no traffic.
func NewRSSPartition(base packet.BuildSpec, flows, queues int) func(queue int) Generator {
	parts := partition(base, flows, queues)
	return func(queue int) Generator {
		if len(parts[queue]) == 0 {
			return nil
		}
		return &cycleSpecs{specs: parts[queue]}
	}
}

// NewZipfPartition is NewRSSPartition with a skewed mix: each queue
// draws its own flows by zipfian popularity with skew s (s > 1), from a
// stream seeded with seed+queue.
func NewZipfPartition(base packet.BuildSpec, flows, queues int, s float64, seed int64) func(queue int) Generator {
	parts := partition(base, flows, queues)
	return func(queue int) Generator {
		own := parts[queue]
		if len(own) == 0 {
			return nil
		}
		rng := rand.New(rand.NewSource(seed + int64(queue)))
		return &zipfSpecs{specs: own, zipf: rand.NewZipf(rng, s, 1, uint64(len(own)-1))}
	}
}
