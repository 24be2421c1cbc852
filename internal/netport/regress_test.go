package netport

import (
	"net"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/packet"
)

// TestTxFailedWriteAccounting (regression): a failed egress write must
// count only TxErrors — never TxPackets/TxBytes or the returned sent
// count — while still recycling the buffers. The old code incremented
// the delivered counters before checking the write error, so a dead
// egress socket reported full throughput.
func TestTxFailedWriteAccounting(t *testing.T) {
	// A real port whose socket dies under it: every write fails
	// deterministically with ErrClosed.
	p, err := Open(Config{Listen: "127.0.0.1:0", Queues: 1, RingSize: 64,
		TxTarget: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.conns[0].Close()
	<-p.loops[0].done // receive loop has exited; the socket is fully dead
	leakcheck.Pool(t, "mbufs", p.PoolAvailable)

	var pkts []*packet.Packet
	for i := 0; i < 4; i++ {
		pkt, err := p.pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		pkt.Data = append(pkt.Data[:0], flowFrame(t, i)...)
		pkts = append(pkts, pkt)
	}
	if sent := p.TxBurstQueue(0, pkts); sent != 0 {
		t.Fatalf("TxBurstQueue returned %d on an all-failed burst, want 0", sent)
	}
	if got := p.Stats.TxErrors.Load(); got != 4 {
		t.Fatalf("tx_errors = %d, want 4", got)
	}
	if tp, tb := p.Stats.TxPackets.Load(), p.Stats.TxBytes.Load(); tp != 0 || tb != 0 {
		t.Fatalf("failed writes counted as delivered: tx_packets=%d tx_bytes=%d", tp, tb)
	}
	// The buffers must be back in circulation despite the wire errors —
	// leakcheck verifies the pool balance at cleanup, and the queue cache
	// should hold all four right now.
	rq := p.queues[0]
	rq.mu.Lock()
	cached := rq.cache.Len()
	rq.mu.Unlock()
	if cached != 4 {
		t.Fatalf("queue cache holds %d buffers, want 4 recycled", cached)
	}
}

// TestTxSinkModeCountsAll: with no tx target every frame "transmits"
// (pure accounting), so the sink path still reports full delivery.
func TestTxSinkModeCountsAll(t *testing.T) {
	p, err := newPort(Config{Queues: 1, RingSize: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	leakcheck.Pool(t, "mbufs", p.PoolAvailable)

	var pkts []*packet.Packet
	bytes := 0
	for i := 0; i < 3; i++ {
		pkt, err := p.pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		pkt.Data = append(pkt.Data[:0], flowFrame(t, i)...)
		bytes += pkt.Len()
		pkts = append(pkts, pkt)
	}
	if sent := p.TxBurstQueue(0, pkts); sent != 3 {
		t.Fatalf("sink TxBurstQueue returned %d, want 3", sent)
	}
	if tp, tb := p.Stats.TxPackets.Load(), p.Stats.TxBytes.Load(); tp != 3 || tb != uint64(bytes) {
		t.Fatalf("sink accounting: tx_packets=%d tx_bytes=%d, want 3/%d", tp, tb, bytes)
	}
	if te := p.Stats.TxErrors.Load(); te != 0 {
		t.Fatalf("tx_errors = %d, want 0", te)
	}
}

// udpSink binds a throwaway UDP listener for pktgen to send at.
func udpSink(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestPktgenStopInterruptsPacing (regression): closing stop while the
// generator is parked inside a pacing sleep must end the run promptly.
// The old pacing sleep was a plain time.Sleep: at 10 pps the first
// batch boundary owes ~6 s of sleep, and a stop during it was ignored
// until the sleep expired.
func TestPktgenStopInterruptsPacing(t *testing.T) {
	sink := udpSink(t)
	gen := &Pktgen{Target: sink.LocalAddr().String(), Base: testSpec(), PPS: 10}
	stop := make(chan struct{})
	done := make(chan int, 1)
	start := time.Now()
	go func() {
		sent, err := gen.Run(stop)
		if err != nil {
			t.Error(err)
		}
		done <- sent
	}()
	// Give the generator time to burn through the first paceBatch sends
	// and park in the pacing sleep, then stop it.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case sent := <-done:
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("stop took %v to take effect", elapsed)
		}
		// At 10 pps the run owes one send every 100ms; anything near the
		// batch size means it ran unpaced to the boundary and parked.
		if sent == 0 {
			t.Fatal("generator sent nothing before stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("generator ignored stop (parked in an uninterruptible pacing sleep?)")
	}
}

// paceBatch is the generator's pacing granularity: it sleeps off its
// lead over the schedule once per burst, and once more after the final
// partial burst.
const paceBatch = pktgenBurst

// TestPktgenShortRunPaces (regression): a run shorter than paceBatch
// must still honor PPS. The old loop only paced at batch boundaries, so
// Count < paceBatch runs finished instantly regardless of PPS.
func TestPktgenShortRunPaces(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	sink := udpSink(t)
	count := paceBatch / 2
	pps := 1000 // ideal duration: count/pps = 32ms
	gen := &Pktgen{Target: sink.LocalAddr().String(), Base: testSpec(), Count: count, PPS: pps}
	start := time.Now()
	sent, err := gen.Run(nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if sent != count {
		t.Fatalf("sent %d, want %d", sent, count)
	}
	ideal := time.Duration(count) * time.Second / time.Duration(pps)
	if elapsed < ideal*3/4 {
		t.Fatalf("short run finished in %v, want ≈%v (tail pacing missing)", elapsed, ideal)
	}
	if elapsed > ideal*20 {
		t.Fatalf("short run took %v, want ≈%v", elapsed, ideal)
	}
}
