package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/dpdk"
	"repro/internal/packet"
)

// frameLen is the one frame size measured: 64 bytes, the smallest
// Ethernet frame, where per-packet cost dominates.
const (
	frameLen   = 64
	payloadLen = frameLen - packet.EthHeaderLen - packet.IPv4HeaderLen - packet.UDPHeaderLen
)

// flowSet derives every flow of a run from the seed. Flow i is denied
// by the firewall when i%16 == 15 (its destination lies outside the
// allowed 10.99/16), so 1/16 of any prefix of the set is denied; indexes
// past Resident are the never-seen flows mem-durable keeps introducing.
type flowSet struct {
	Resident int // flows in the set, allowed and denied
	srcBase  packet.IPv4
	portMix  uint32
}

// newFlowSet sizes the set so that allowed of its flows pass the
// firewall: allowed + allowed/15 flows in all.
func newFlowSet(seed int64, allowed int) flowSet {
	rng := rand.New(rand.NewSource(seed))
	return flowSet{
		Resident: allowed + allowed/15,
		srcBase:  packet.Addr(11, 0, 0, 0) + packet.IPv4(rng.Intn(1<<20)),
		portMix:  rng.Uint32(),
	}
}

func (fs flowSet) denied(i int) bool { return i%16 == 15 }

// tuple is flow i's five-tuple. Source address and port vary per flow
// and per seed; the destination is one service address inside the
// allowed prefix, or one outside it for a denied flow.
func (fs flowSet) tuple(i int) packet.FiveTuple {
	dst := packet.Addr(10, 99, 0, 1)
	if fs.denied(i) {
		dst = packet.Addr(10, 98, 0, 1)
	}
	h := (uint32(i) + fs.portMix) * 2654435761
	return packet.FiveTuple{
		SrcIP:   fs.srcBase + packet.IPv4(i),
		DstIP:   dst,
		SrcPort: 1024 + uint16(h>>16)%60000,
		DstPort: 80,
		Proto:   packet.ProtoUDP,
	}
}

func (fs flowSet) spec(i int) packet.BuildSpec {
	s := dpdk.DefaultSpec()
	s.Tuple = fs.tuple(i)
	s.PayloadLen = payloadLen
	return s
}

// queueOf is the receive queue hardware RSS would deliver the flow to —
// the same key and redirection table the simulated port uses.
func queueOf(reta *packet.RETA, t packet.FiveTuple) int {
	return reta.Queue(t.RSSHash(packet.DefaultRSSKey))
}

// aliasSampler draws from a fixed discrete distribution in O(1) (Vose's
// alias method): rand.Zipf costs a log and an exp per draw, which would
// make the generator a visible line in the ledger.
type aliasSampler struct {
	prob  []float64
	alias []int32
}

// newZipfSampler samples ranks 0..n-1 with P(k) proportional to
// (1+k)^-s, the distribution rand.NewZipf(r, s, 1, n-1) draws from.
func newZipfSampler(n int, s float64) *aliasSampler {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(1+float64(k), -s)
		sum += w[k]
	}
	a := &aliasSampler{prob: make([]float64, n), alias: make([]int32, n)}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for k := range w {
		w[k] *= float64(n) / sum
		if w[k] < 1 {
			small = append(small, int32(k))
		} else {
			large = append(large, int32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		a.prob[s], a.alias[s] = w[s], l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, k := range append(small, large...) {
		a.prob[k], a.alias[k] = 1, k
	}
	return a
}

func (a *aliasSampler) draw(rng *rand.Rand) int {
	k := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[k] {
		return k
	}
	return int(a.alias[k])
}

// queueGen is one receive queue's traffic source (dpdk.Config.QueueGen):
// it emits only flows that RSS steers to its queue, so flow affinity
// holds by construction and steering costs nothing per packet. The port
// serializes NextSpec under the queue lock; the counters are atomics
// because the measuring goroutine reads them mid-run.
//
// Every resident flow is emitted once, in order, before anything else,
// so the flow tables are established inside the warm-up. After that a
// uniform source keeps cycling the flows; a Zipf source draws ranks, and
// never-seen flows open on a time schedule, freshPerSec of them a second.
// A schedule, not a share of the packets: the flows a run has seen, and
// with them its resident set, must not depend on how fast the NF forwards.
type queueGen struct {
	fs    flowSet
	reta  *packet.RETA
	queue int
	specs []packet.BuildSpec
	deny  []bool
	next  int

	zipf *aliasSampler // nil = uniform round-robin
	rng  *rand.Rand

	freshPerSec float64   // 0 = never
	freshFrom   time.Time // the schedule's origin: the end of the establishing sweep
	sent        int       // packets since the establishing sweep
	cursor      int       // next never-seen candidate index

	denied atomic.Uint64
	fresh  atomic.Uint64
}

// newQueueGens partitions the resident flows across queues and builds
// one source per queue. Each source gets its own seeded stream.
func newQueueGens(seed int64, fs flowSet, queues int, zipfS, freshPerSec float64) []*queueGen {
	reta := packet.NewRETA(queues, 0)
	gens := make([]*queueGen, queues)
	for q := range gens {
		gens[q] = &queueGen{
			fs: fs, reta: reta, queue: q, freshPerSec: freshPerSec / float64(queues),
			rng:    rand.New(rand.NewSource(seed*1000003 + int64(q) + 1)),
			cursor: fs.Resident,
		}
	}
	for i := 0; i < fs.Resident; i++ {
		g := gens[queueOf(reta, fs.tuple(i))]
		g.specs = append(g.specs, fs.spec(i))
		g.deny = append(g.deny, fs.denied(i))
	}
	if zipfS > 0 {
		for _, g := range gens {
			g.zipf = newZipfSampler(len(g.specs), zipfS)
		}
	}
	return gens
}

// NextSpec implements dpdk.Generator.
func (g *queueGen) NextSpec(spec *packet.BuildSpec) {
	if g.freshPerSec > 0 && g.next >= len(g.specs) && g.freshDue() {
		*spec = g.freshSpec()
		g.fresh.Add(1)
		return
	}
	var k int
	switch {
	case g.next < len(g.specs): // the establishing sweep
		k = g.next
		g.next++
	case g.zipf != nil:
		k = g.zipf.draw(g.rng)
	default:
		k = g.next % len(g.specs)
		g.next++
		if g.next == 2*len(g.specs) {
			g.next = len(g.specs)
		}
	}
	*spec = g.specs[k]
	if g.deny[k] {
		g.denied.Add(1)
	}
}

// freshDue reports whether the schedule owes a never-seen flow. It reads
// the clock on every batchSize-th packet only, so at most one packet of a
// batch opens a flow however far a stalled NF has fallen behind.
func (g *queueGen) freshDue() bool {
	if g.sent++; g.sent%batchSize != 0 {
		return false
	}
	if g.freshFrom.IsZero() {
		g.freshFrom = time.Now()
	}
	return float64(g.fresh.Load()) < time.Since(g.freshFrom).Seconds()*g.freshPerSec
}

// freshSpec returns the next never-seen allowed flow that RSS steers to
// this queue.
func (g *queueGen) freshSpec() packet.BuildSpec {
	for {
		i := g.cursor
		g.cursor++
		if g.fs.denied(i) {
			continue
		}
		if t := g.fs.tuple(i); queueOf(g.reta, t) == g.queue {
			return g.fs.spec(i)
		}
	}
}

var _ dpdk.Generator = (*queueGen)(nil)
