package dpdk

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/mempool"
	"repro/internal/packet"
)

func TestRxBurstFillsBatch(t *testing.T) {
	p := NewPort(Config{PoolSize: 64})
	leakcheck.Pool(t, "port", p.PoolAvailable)
	batch := make([]*packet.Packet, 32)
	n := p.RxBurst(batch)
	if n != 32 {
		t.Fatalf("RxBurst = %d, want 32", n)
	}
	for i := 0; i < n; i++ {
		if batch[i] == nil {
			t.Fatalf("nil packet at %d", i)
		}
		if err := batch[i].Parse(); err != nil {
			t.Fatalf("generated packet %d does not parse: %v", i, err)
		}
	}
	if got := p.Stats.RxPackets.Load(); got != 32 {
		t.Fatalf("RxPackets = %d", got)
	}
	p.FreeQueue(0, batch[:n])
}

func TestRxBurstExhaustsPool(t *testing.T) {
	p := NewPort(Config{PoolSize: 8})
	leakcheck.Pool(t, "port", p.PoolAvailable)
	batch := make([]*packet.Packet, 16)
	n := p.RxBurst(batch)
	if n != 8 {
		t.Fatalf("RxBurst = %d, want 8 (pool size)", n)
	}
	if p.Stats.AllocFail.Load() == 0 {
		t.Fatal("no alloc failure recorded")
	}
	p.FreeQueue(0, batch[:n])
	if p.PoolAvailable() != 8 {
		t.Fatalf("pool leak: %d available", p.PoolAvailable())
	}
}

// TestRxBurstBuildsInTheSmallestRoom: each frame is built in place at the
// start of the smallest room of its mbuf that holds it, on both sides of
// the small room's 128-byte edge and up to MbufSize, and still parses.
func TestRxBurstBuildsInTheSmallestRoom(t *testing.T) {
	headers := packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
	for _, c := range []struct{ frame, room int }{
		{64, 128}, {128, 128}, {129, MbufSize}, {1400, MbufSize}, {MbufSize, MbufSize},
	} {
		spec := DefaultSpec()
		spec.PayloadLen = c.frame - headers
		p := NewPort(Config{PoolSize: 8, Gen: &FixedFlow{Spec: spec}})
		batch := make([]*packet.Packet, 8)
		n := p.RxBurst(batch)
		for _, pkt := range batch[:n] {
			room := pkt.Room(c.frame)
			if pkt.Len() != c.frame || cap(room) != c.room || cap(pkt.Data) != c.room || &pkt.Data[0] != &room[:1][0] {
				t.Fatalf("%d-byte frame: got %d bytes in a %d-byte buffer, want the start of the %d-byte room",
					c.frame, pkt.Len(), cap(pkt.Data), c.room)
			}
			if err := pkt.Parse(); err != nil {
				t.Fatalf("%d-byte frame does not parse: %v", c.frame, err)
			}
		}
		p.FreeQueue(0, batch[:n])
		if got := p.PoolAvailable(); got != 8 {
			t.Fatalf("%d-byte frames: pool leak, %d of 8 available", c.frame, got)
		}
	}
}

// TestRxBurstRejectsOversizedFrame: a spec whose frame does not fit an
// mbuf is a generator bug, rejected like an invalid spec rather than
// built on the heap, and the mbuf drawn for it goes back.
func TestRxBurstRejectsOversizedFrame(t *testing.T) {
	for _, payload := range []int{MbufSize, 3000, -1} {
		spec := DefaultSpec()
		spec.PayloadLen = payload
		p := NewPort(Config{PoolSize: 8, Gen: &FixedFlow{Spec: spec}})
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid spec") {
					t.Fatalf("payload %d: recover() = %v, want an invalid-spec panic", payload, r)
				}
			}()
			p.RxBurst(make([]*packet.Packet, 1))
		}()
		if got := p.PoolAvailable(); got != 8 {
			t.Fatalf("payload %d: the rejected frame's mbuf leaked (%d of 8 available)", payload, got)
		}
	}
}

func TestTxBurstRecycles(t *testing.T) {
	p := NewPort(Config{PoolSize: 16})
	leakcheck.Pool(t, "port", p.PoolAvailable)
	batch := make([]*packet.Packet, 16)
	n := p.RxBurst(batch)
	sent := p.TxBurst(batch[:n])
	if sent != n {
		t.Fatalf("TxBurst = %d, want %d", sent, n)
	}
	if p.PoolAvailable() != 16 {
		t.Fatalf("pool not refilled: %d", p.PoolAvailable())
	}
	if p.Stats.TxPackets.Load() != uint64(n) {
		t.Fatalf("TxPackets = %d", p.Stats.TxPackets.Load())
	}
	// Rx again reuses the same buffers (zero-alloc steady state).
	m := p.RxBurst(batch)
	if m != 16 {
		t.Fatalf("second RxBurst = %d", m)
	}
	p.FreeQueue(0, batch[:m])
}

func TestTxBurstSkipsNil(t *testing.T) {
	p := NewPort(Config{PoolSize: 4})
	leakcheck.Pool(t, "port", p.PoolAvailable)
	batch := make([]*packet.Packet, 2)
	n := p.RxBurst(batch)
	if n != 2 {
		t.Fatal("rx failed")
	}
	p.TxBurst([]*packet.Packet{batch[0], nil, batch[1]})
	if p.Stats.TxPackets.Load() != 2 {
		t.Fatalf("TxPackets = %d, want 2", p.Stats.TxPackets.Load())
	}
}

func TestUniformFlowsCycle(t *testing.T) {
	g := &UniformFlows{Base: DefaultSpec(), Flows: 4}
	seen := make(map[packet.FiveTuple]bool)
	var spec packet.BuildSpec
	for i := 0; i < 8; i++ {
		g.NextSpec(&spec)
		seen[spec.Tuple] = true
	}
	if len(seen) != 4 {
		t.Fatalf("distinct flows = %d, want 4", len(seen))
	}
}

func TestZipfFlowsSkewedAndDeterministic(t *testing.T) {
	mk := func() map[packet.IPv4]int {
		g := NewZipfFlows(DefaultSpec(), 1000, 1.5, 42)
		counts := make(map[packet.IPv4]int)
		var spec packet.BuildSpec
		for i := 0; i < 5000; i++ {
			g.NextSpec(&spec)
			counts[spec.Tuple.SrcIP]++
		}
		return counts
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("zipf generator not deterministic")
	}
	// The most popular flow should dominate: > 20% of traffic for s=1.5.
	base := DefaultSpec().Tuple.SrcIP
	if a[base] < 1000 {
		t.Fatalf("head flow count = %d, want skewed (>1000 of 5000)", a[base])
	}
}

func TestZipfFlowsRejectsZeroFlows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewZipfFlows(DefaultSpec(), 0, 1.5, 1)
}

func TestFixedFlowConstant(t *testing.T) {
	g := &FixedFlow{Spec: DefaultSpec()}
	var a, b packet.BuildSpec
	g.NextSpec(&a)
	g.NextSpec(&b)
	if a.Tuple != b.Tuple {
		t.Fatal("fixed flow varied")
	}
}

func BenchmarkRxTxBurst32(b *testing.B) {
	p := NewPort(Config{PoolSize: 4096})
	batch := make([]*packet.Packet, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := p.RxBurst(batch)
		p.TxBurst(batch[:n])
	}
}

// TestNewPortAllocsIgnorePoolSize: the mbuf pool is two data arenas and
// no headers until traffic needs them, so what a port costs to build does
// not grow with its PoolSize (it was two allocations per mbuf). The slack
// of a few covers size-class effects such as the race detector's shadow
// bookkeeping.
func TestNewPortAllocsIgnorePoolSize(t *testing.T) {
	allocs := func(pool int) float64 {
		return testing.AllocsPerRun(5, func() { NewPort(Config{PoolSize: pool}) })
	}
	if small, large := allocs(64), allocs(4096); large > small+4 {
		t.Fatalf("NewPort allocations grow with the pool: %v at 64 mbufs, %v at 4096", small, large)
	}
}

// TestPortMakesHeadersOnFirstUse: a big port has made no mbuf header at
// construction, and k mbufs drawn make ⌈k/ChunkSize⌉ chunks of them — the
// headers resident follow the deepest draw, not PoolSize.
func TestPortMakesHeadersOnFirstUse(t *testing.T) {
	p := NewPort(Config{PoolSize: 1 << 16})
	leakcheck.Pool(t, "port", p.PoolAvailable)
	if made := p.pool.Made(); made != 0 {
		t.Fatalf("fresh port made %d headers, want 0", made)
	}
	var held []*packet.Packet
	for _, k := range []int{1, mempool.ChunkSize, mempool.ChunkSize + 1, 1000} {
		for len(held) < k {
			pkt, err := p.pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, pkt)
		}
		chunks := (k + mempool.ChunkSize - 1) / mempool.ChunkSize
		if made := p.pool.Made(); made != chunks*mempool.ChunkSize {
			t.Fatalf("after %d gets: %d headers made, want %d chunks of %d", k, made, chunks, mempool.ChunkSize)
		}
	}
	if p.PoolAvailable() != 1<<16-len(held) {
		t.Fatalf("PoolAvailable %d with %d of %d held", p.PoolAvailable(), len(held), 1<<16)
	}
	p.FreeQueue(0, held)
}

// BenchmarkNewPort is the construction gate in `make alloc-gate`: at
// PoolSize 65 536 a port must cost its data arenas (128 MiB of large
// rooms and 8 MiB of small ones, pointer-free, left untouched) plus small
// change — an eager header slab would add
// ≈ 16 MB of pointerful headers and a 0.5 MB free list.
func BenchmarkNewPort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewPort(Config{PoolSize: 1 << 16})
	}
}
