// Multi-queue receive: the RSS slice of the simulated NIC.
//
// Real NICs spread flows across receive queues by hashing the 5-tuple
// (Toeplitz) and indexing a redirection table; one core polls each queue
// and therefore sees every packet of the flows assigned to it. This file
// provides that in two forms:
//
//   - partitioned mode (Config.QueueGen, usually via NewRSSPartition):
//     each queue has an independent traffic source whose flows already
//     hash to that queue — the moral equivalent of hardware RSS, with no
//     shared state on the per-packet path; and
//   - steered mode (shared Config.Gen, RxQueues > 1): a software
//     distributor pulls packets from the shared generator, hashes them,
//     and fans them out to per-queue descriptor rings — the RSS
//     emulation a single-queue NIC or virtio port would need.
//
// Either way the invariant the sharded pipeline runtime depends on
// holds: packets of one flow always surface on the same queue.
package dpdk

import (
	"fmt"
	"sync"

	"repro/internal/mempool"
	"repro/internal/packet"
)

// rxQueue is one receive queue: a local mempool cache for buffer
// recycling and, in steered mode, the descriptor ring the distributor
// fills. The mutex makes each queue's operations atomic; in the intended
// one-worker-per-queue deployment it is uncontended.
type rxQueue struct {
	mu    sync.Mutex
	gen   Generator                     // per-queue source; nil in steered mode or for empty partitions
	ring  *mempool.Ring[*packet.Packet] // steered mode only
	cache *mempool.Cache[packet.Packet]

	// spec is fillLocal's scratch, a struct field because a stack-local
	// BuildSpec passed through the Generator interface escapes — one heap
	// allocation per burst on the receive hot path. Guarded by mu.
	spec packet.BuildSpec
}

// Queues reports the number of receive queues.
func (p *Port) Queues() int { return len(p.queues) }

// RETA exposes the port's RSS redirection table (read-only; safe for
// concurrent use).
func (p *Port) RETA() *packet.RETA { return p.reta }

// RSSQueue reports which receive queue the port steers a flow to.
func (p *Port) RSSQueue(t packet.FiveTuple) int {
	return p.reta.Queue(p.rss.HashTuple(t))
}

// RxBurstQueue fills out with up to len(out) packets from receive queue
// q, returning the count. A short (even zero) return is not end-of-
// stream: in steered mode it means the distributor produced nothing for
// this queue on this poll; callers poll again, exactly like a PMD.
//
// Each queue is safe to poll concurrently with other queues; polling the
// same queue from two goroutines is serialized but pointless (and
// destroys flow affinity for the callers).
func (p *Port) RxBurstQueue(q int, out []*packet.Packet) int {
	rq := p.queue(q)
	if !p.steered {
		rq.mu.Lock()
		n := p.fillLocal(q, rq, out)
		rq.mu.Unlock()
		return n
	}
	// Steered mode: drain the ring; if short, run a distributor pass and
	// drain again.
	n := rq.ring.DequeueBurst(out)
	if n == len(out) {
		return n
	}
	p.fillSteered(q, len(out)-n)
	return n + rq.ring.DequeueBurst(out[n:])
}

// fillLocal generates packets for queue q from its own source, using the
// queue's mempool cache so the shared pool is only touched in bursts.
// Caller holds rq.mu.
func (p *Port) fillLocal(q int, rq *rxQueue, out []*packet.Packet) int {
	if rq.gen == nil {
		return 0 // empty partition: no flows hash to this queue
	}
	n := 0
	for n < len(out) {
		pkt, err := rq.cache.Get()
		if err != nil {
			p.Stats.AllocFail.Add(1)
			break
		}
		rq.gen.NextSpec(&rq.spec)
		p.initPacket(pkt, &rq.spec, q, p.rss.HashTuple(rq.spec.Tuple))
		p.countRx(pkt)
		out[n] = pkt
		n++
	}
	return n
}

// fillSteered runs one distributor pass: pull packets from the shared
// generator, hash, and enqueue onto the owning queue's ring, stopping
// once queue q has received want packets or the generation budget is
// spent. The budget bounds the pass when q's flows are rare (or absent)
// in the traffic mix.
func (p *Port) fillSteered(q int, want int) {
	budget := want*len(p.queues) + 16
	p.fillMu.Lock()
	defer p.fillMu.Unlock()
	spec := &p.fillSpec // scratch under fillMu; a stack local would escape via the Generator call
	got := 0
	for i := 0; i < budget && got < want; i++ {
		pkt, err := p.pool.Get()
		if err != nil {
			p.Stats.AllocFail.Add(1)
			break
		}
		p.gen.NextSpec(spec)
		hash := p.rss.HashTuple(spec.Tuple)
		dst := p.reta.Queue(hash)
		p.initPacket(pkt, spec, dst, hash)
		if p.queues[dst].ring.Enqueue(pkt) != nil {
			// Destination ring full: the owning worker is not draining.
			// Hardware drops the packet and counts rx_missed.
			p.Stats.RxMissed.Add(1)
			p.pool.Put(pkt)
			continue
		}
		p.countRx(pkt)
		if dst == q {
			got++
		}
	}
}

// initPacket builds the frame described by spec into pkt and stamps the
// receive metadata a NIC would deposit (port, queue, and the RSS hash
// the caller computed — once per packet, whether or not it also steered
// by it).
func (p *Port) initPacket(pkt *packet.Packet, spec *packet.BuildSpec, queue int, hash uint32) {
	frame, err := packet.Build(pkt.Data[:0], *spec)
	if err != nil {
		panic(fmt.Sprintf("dpdk: generator produced invalid spec: %v", err))
	}
	pkt.Data = frame
	pkt.Reset()
	pkt.RxPort = p.Index
	pkt.RxQueue = queue
	pkt.RxHash = hash
}

// countRx records a delivered packet in the port counters.
func (p *Port) countRx(pkt *packet.Packet) {
	p.Stats.RxPackets.Add(1)
	p.Stats.RxBytes.Add(uint64(pkt.Len()))
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

// Drain stops the receive side and consolidates every buffer back into
// the shared pool: undelivered ring descriptors are freed and queue
// caches flushed. Runners call this on shutdown so pool accounting
// balances; the port is reusable afterwards.
func (p *Port) Drain() {
	p.fillMu.Lock()
	defer p.fillMu.Unlock()
	for _, rq := range p.queues {
		rq.mu.Lock()
		if rq.ring != nil {
			for {
				pkt, err := rq.ring.Dequeue()
				if err != nil {
					break
				}
				p.pool.Put(pkt)
			}
		}
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

// NewRSSPartition derives flows distinct flows from base (the same
// SrcIP/SrcPort walk UniformFlows performs), computes each flow's RSS
// hash, and partitions them across queues by redirection table — the
// packets hardware RSS would deliver to each queue, precomputed. The
// returned factory suits Config.QueueGen: each queue round-robins only
// its own flows, so steering costs nothing per packet and flow affinity
// holds by construction. Queues that no flow hashes to produce no
// traffic.
func NewRSSPartition(base packet.BuildSpec, flows, queues int) func(queue int) Generator {
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
	return func(queue int) Generator {
		if len(parts[queue]) == 0 {
			return nil
		}
		return &cycleSpecs{specs: parts[queue]}
	}
}
