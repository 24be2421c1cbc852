package dpdk

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/packet"
)

func TestPartitionedQueuesDeliverOwnFlows(t *testing.T) {
	const queues = 4
	p := NewPort(Config{
		PoolSize: 512,
		RxQueues: queues,
		QueueGen: NewRSSPartition(DefaultSpec(), 256, queues),
	})
	leakcheck.Pool(t, "partitioned port", p.PoolAvailable)
	if p.Queues() != queues {
		t.Fatalf("Queues() = %d", p.Queues())
	}
	buf := make([]*packet.Packet, 16)
	for q := 0; q < queues; q++ {
		n := p.RxBurstQueue(q, buf)
		if n == 0 {
			t.Fatalf("queue %d produced no packets", q)
		}
		for _, pkt := range buf[:n] {
			if err := pkt.Parse(); err != nil {
				t.Fatalf("queue %d produced unparsable packet: %v", q, err)
			}
			if got := p.rssQueue(pkt.Tuple()); got != q {
				t.Fatalf("queue %d delivered a flow that hashes to queue %d", q, got)
			}
		}
		p.TxBurstQueue(q, buf[:n])
	}
	p.Drain()
}

// TestSteeredQueuesPreserveFlowAffinity: over a skewed mix, every flow
// surfaces on one queue only, the one RSS steers it to.
func TestSteeredQueuesPreserveFlowAffinity(t *testing.T) {
	const queues = 4
	p := NewPort(Config{
		PoolSize: 1024,
		RxQueues: queues,
		QueueGen: NewZipfPartition(DefaultSpec(), 64, queues, 1.2, 7),
	})
	leakcheck.Pool(t, "steered port", p.PoolAvailable)
	buf := make([]*packet.Packet, 16)
	seen := map[packet.FiveTuple]int{}
	for round := 0; round < 10; round++ {
		for q := 0; q < queues; q++ {
			n := p.RxBurstQueue(q, buf)
			for _, pkt := range buf[:n] {
				if err := pkt.Parse(); err != nil {
					t.Fatal(err)
				}
				if prev, ok := seen[pkt.Tuple()]; ok && prev != q {
					t.Fatalf("flow %v seen on queues %d and %d", pkt.Tuple(), prev, q)
				}
				seen[pkt.Tuple()] = q
				if got := p.rssQueue(pkt.Tuple()); got != q {
					t.Fatalf("flow on queue %d but RETA says %d", q, got)
				}
			}
			p.FreeQueue(q, buf[:n])
		}
	}
	if len(seen) < queues {
		t.Fatalf("only %d flows observed", len(seen))
	}
	p.Drain()
}

// TestSteeredBackpressureBudget: a queue whose flows never appear
// returns 0 rather than spinning forever.
func TestSteeredBackpressureBudget(t *testing.T) {
	p := NewPort(Config{
		PoolSize: 256,
		RxQueues: 2,
		QueueGen: NewRSSPartition(DefaultSpec(), 1, 2), // one flow: one queue gets everything
	})
	leakcheck.Pool(t, "one-flow port", p.PoolAvailable)
	buf := make([]*packet.Packet, 8)
	home := p.rssQueue(DefaultSpec().Tuple)
	other := 1 - home
	if n := p.RxBurstQueue(other, buf); n != 0 {
		t.Fatalf("queue %d got %d packets of a flow steered to %d", other, n, home)
	}
	n := p.RxBurstQueue(home, buf)
	if n != 8 {
		t.Fatalf("home queue got %d packets, want 8", n)
	}
	p.FreeQueue(home, buf[:n])
	p.Drain()
}

// TestMultiQueuePortNeedsQueueGen: one source cannot feed more than one
// queue (it would deliver every flow on every queue), so a multi-queue
// port without per-queue sources is refused at construction.
func TestMultiQueuePortNeedsQueueGen(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "QueueGen") {
			t.Fatalf("recover() = %v, want a panic naming QueueGen", r)
		}
	}()
	NewPort(Config{PoolSize: 64, RxQueues: 2})
}

func TestDrainConsolidatesRingsAndCaches(t *testing.T) {
	p := NewPort(Config{
		PoolSize: 512,
		RxQueues: 2,
		QueueGen: NewRSSPartition(DefaultSpec(), 64, 2),
	})
	buf := make([]*packet.Packet, 16)
	n := p.RxBurstQueue(0, buf)
	p.TxBurstQueue(0, buf[:n]) // parks buffers in queue 0's cache
	p.Drain()
	// After drain, the shared pool itself (not just pool+caches) is whole.
	if avail := p.pool.Available(); avail != 512 {
		t.Fatalf("pool holds %d after drain, want 512", avail)
	}
}

func TestConcurrentQueuePolling(t *testing.T) {
	const queues = 8
	p := NewPort(Config{
		PoolSize: 2048,
		RxQueues: queues,
		QueueGen: NewRSSPartition(DefaultSpec(), 1024, queues),
	})
	leakcheck.Pool(t, "concurrent port", p.PoolAvailable)
	var wg sync.WaitGroup
	for q := 0; q < queues; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			buf := make([]*packet.Packet, 16)
			for i := 0; i < 200; i++ {
				n := p.RxBurstQueue(q, buf)
				p.TxBurstQueue(q, buf[:n])
			}
		}(q)
	}
	wg.Wait()
	p.Drain()
	if p.Stats.RxPackets.Load() != p.Stats.TxPackets.Load() {
		t.Fatalf("rx %d != tx %d", p.Stats.RxPackets.Load(), p.Stats.TxPackets.Load())
	}
}

func TestQueueIndexOutOfRangePanics(t *testing.T) {
	p := NewPort(Config{PoolSize: 16})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.RxBurstQueue(1, make([]*packet.Packet, 1))
}

func TestNewRSSPartitionCoversAllFlows(t *testing.T) {
	const queues = 4
	const flows = 500
	factory := NewRSSPartition(DefaultSpec(), flows, queues)
	reta := packet.NewRETA(queues, 0)
	total := 0
	for q := 0; q < queues; q++ {
		gen := factory(q)
		if gen == nil {
			continue
		}
		// Walk one full cycle of the partition.
		seen := map[packet.FiveTuple]bool{}
		var spec packet.BuildSpec
		for {
			gen.NextSpec(&spec)
			if seen[spec.Tuple] {
				break
			}
			seen[spec.Tuple] = true
			if got := reta.Queue(spec.Tuple.RSSHash(packet.DefaultRSSKey)); got != q {
				t.Fatalf("partition %d contains flow for queue %d", q, got)
			}
		}
		total += len(seen)
	}
	if total != flows {
		t.Fatalf("partitions cover %d flows, want %d", total, flows)
	}
}

func TestNewRSSPartitionValidation(t *testing.T) {
	for _, c := range []struct{ flows, queues int }{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("flows=%d queues=%d: no panic", c.flows, c.queues)
				}
			}()
			NewRSSPartition(DefaultSpec(), c.flows, c.queues)
		}()
	}
}

// TestRxHashAndQueuePinned: the RSS hash of a fixed flow list and the
// queue RSS steers each flow to are literal values recorded before the
// hash became table-driven. A changed hash would silently re-steer every
// flow a restored store remembers.
func TestRxHashAndQueuePinned(t *testing.T) {
	const queues = 4
	pinned := []struct {
		hash  uint32
		queue int
	}{
		{0x02b27643, 3}, {0x857d4ddc, 0}, {0x1e148ef5, 1}, {0x2877e04c, 0},
		{0xebc4375b, 3}, {0x08ffe98e, 2}, {0xe0e9423d, 1}, {0x6518b225, 1},
	}
	specs := make([]packet.BuildSpec, len(pinned))
	want := map[packet.FiveTuple]int{} // tuple -> index into pinned
	for i := range specs {
		specs[i] = DefaultSpec()
		specs[i].Tuple.SrcIP += packet.IPv4(i * 7919)
		specs[i].Tuple.SrcPort += uint16(i * 31)
		want[specs[i].Tuple] = i
	}
	partitioned := func(q int) Generator {
		var own []packet.BuildSpec
		for i, s := range specs {
			if pinned[i].queue == q {
				own = append(own, s)
			}
		}
		return &cycleSpecs{specs: own}
	}
	p := NewPort(Config{PoolSize: 1024, RxQueues: queues, QueueGen: partitioned})
	seen := map[int]bool{}
	buf := make([]*packet.Packet, 8)
	for q := 0; q < queues; q++ {
		n := p.RxBurstQueue(q, buf)
		for _, pkt := range buf[:n] {
			if err := pkt.Parse(); err != nil {
				t.Fatal(err)
			}
			i, ok := want[pkt.Tuple()]
			if !ok {
				t.Fatalf("queue %d delivered unknown flow %v", q, pkt.Tuple())
			}
			if pkt.RSSHash() != pinned[i].hash || q != pinned[i].queue || p.rssQueue(pkt.Tuple()) != pinned[i].queue {
				t.Errorf("flow %d polled from queue %d hashes %#08x, steers to %d; pinned %#08x queue %d",
					i, q, pkt.RSSHash(), p.rssQueue(pkt.Tuple()), pinned[i].hash, pinned[i].queue)
			}
			seen[i] = true
		}
		p.FreeQueue(q, buf[:n])
	}
	if len(seen) != len(pinned) {
		t.Errorf("saw %d of %d pinned flows", len(seen), len(pinned))
	}
	p.Drain()
}
