// Regression tests for the Generator concurrency contract (see the
// Generator doc in dpdk.go): a port calls each queue's stateful
// generator under that queue's lock, so concurrent multi-queue polling
// must be race-free; and a stateless FixedFlow must be shareable across
// ports polled concurrently. Run under `make race` —
// the race detector is the assertion.
package dpdk

import (
	"sync"
	"testing"

	"repro/internal/packet"
)

// TestGeneratorSteeredConcurrentPolls polls every queue of an
// RSS-partitioned port from its own goroutine. Each queue draws from its
// own stateful zipf source (its own rand stream), and flow affinity must
// survive the contention on the shared pool.
func TestGeneratorSteeredConcurrentPolls(t *testing.T) {
	const (
		queues = 4
		bursts = 200
		batch  = 16
	)
	port := NewPort(Config{
		PoolSize:  queues * 256,
		RxQueues:  queues,
		CacheSize: 16,
		QueueGen:  NewZipfPartition(DefaultSpec(), 256, queues, 1.3, 11),
	})
	var wg sync.WaitGroup
	for q := 0; q < queues; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			buf := make([]*packet.Packet, batch)
			for i := 0; i < bursts; i++ {
				n := port.RxBurstQueue(q, buf)
				for _, pkt := range buf[:n] {
					if err := pkt.Parse(); err != nil {
						t.Error(err)
					} else if want := port.rssQueue(pkt.Tuple()); want != q {
						t.Errorf("flow %s surfaced on queue %d, RSS says %d", pkt.Tuple(), q, want)
					}
				}
				port.FreeQueue(q, buf[:n])
			}
		}(q)
	}
	wg.Wait()
	port.Drain()
	if got := port.PoolAvailable(); got != port.pool.Capacity() {
		t.Fatalf("pool: %d of %d buffers after drain", got, port.pool.Capacity())
	}
}

// TestGeneratorFixedFlowSharedAcrossPorts shares one stateless FixedFlow
// between two ports polled concurrently — the documented exemption from
// the one-port-per-stateful-generator rule.
func TestGeneratorFixedFlowSharedAcrossPorts(t *testing.T) {
	shared := &FixedFlow{Spec: DefaultSpec()}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			port := NewPort(Config{PoolSize: 128, Gen: shared})
			buf := make([]*packet.Packet, 16)
			for b := 0; b < 200; b++ {
				n := port.RxBurst(buf)
				port.FreeQueue(0, buf[:n])
			}
			port.Drain()
			if got := port.PoolAvailable(); got != port.pool.Capacity() {
				t.Errorf("pool: %d of %d buffers after drain", got, port.pool.Capacity())
			}
		}()
	}
	wg.Wait()
}
