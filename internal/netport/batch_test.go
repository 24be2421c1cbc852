package netport

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/packet"
)

// fakeBatchConn scripts WriteBatch results: call i accepts at most
// accepts[i] payloads (every payload once the script runs out), so tests
// can force a short send exactly mid-burst. ReadBatch is never called —
// the fake only stands in on the egress side of a socketless port.
type fakeBatchConn struct {
	accepts []int
	calls   int
	wrote   int
	bytes   int
}

func (f *fakeBatchConn) BatchCap() int { return maxBurst }

func (f *fakeBatchConn) ReadBatch([][]byte, []int) (int, error) {
	panic("fakeBatchConn: unexpected ReadBatch")
}

func (f *fakeBatchConn) WriteBatch(payloads [][]byte, _ *net.UDPAddr) (int, error) {
	k := len(payloads)
	if f.calls < len(f.accepts) {
		k = min(f.accepts[f.calls], k)
	}
	f.calls++
	for _, p := range payloads[:k] {
		f.bytes += len(p)
	}
	f.wrote += k
	return k, nil
}

// txPort builds a socketless port whose egress goes through fake, plus
// n mbufs loaded with distinct flow frames.
func txPort(t *testing.T, cfg Config, fake batchConn, n int) (*Port, []*packet.Packet, int) {
	t.Helper()
	p, err := newPort(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	leakcheck.Pool(t, "mbufs", p.PoolAvailable)
	p.txDst = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	p.txbcs = []batchConn{fake}

	var pkts []*packet.Packet
	bytes := 0
	for i := 0; i < n; i++ {
		pkt, err := p.pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		pkt.Data = append(pkt.Data[:0], flowFrame(t, i)...)
		bytes += pkt.Len()
		pkts = append(pkts, pkt)
	}
	return p, pkts, bytes
}

// TestTxBatchedPartialSendAccounting (regression, satellite): when the
// kernel cuts a batched send short at k<n datagrams, exactly k count in
// TxPackets/TxBytes and the returned sent — the unaccepted tail is
// drop-tailed into TxErrors, not retried and not silently reported as
// delivered — and all n buffers recycle, so a short send never leaks an
// mbuf.
func TestTxBatchedPartialSendAccounting(t *testing.T) {
	const offered, accepted = 8, 3
	fake := &fakeBatchConn{accepts: []int{accepted}}
	p, pkts, _ := txPort(t, Config{Queues: 1, RingSize: 64, BatchSize: 16}, fake, offered)

	wantBytes := 0
	for _, pkt := range pkts[:accepted] {
		wantBytes += pkt.Len()
	}
	if sent := p.TxBurstQueue(0, pkts); sent != accepted {
		t.Fatalf("TxBurstQueue returned %d, want the %d the conn accepted", sent, accepted)
	}
	if tp, tb := p.Stats.TxPackets.Load(), p.Stats.TxBytes.Load(); tp != accepted || tb != uint64(wantBytes) {
		t.Fatalf("partial send accounting: tx_packets=%d tx_bytes=%d, want %d/%d", tp, tb, accepted, wantBytes)
	}
	if te := p.Stats.TxErrors.Load(); te != offered-accepted {
		t.Fatalf("tx_errors=%d, want the drop-tailed %d", te, offered-accepted)
	}
	if fake.calls != 1 {
		t.Fatalf("short send retried: %d WriteBatch calls, want 1 (drop-tail, not retry)", fake.calls)
	}
	// Every buffer — sent and drop-tailed alike — is back in the queue
	// cache; leakcheck verifies the pool balance at cleanup.
	rq := p.queues[0]
	rq.mu.Lock()
	cached := rq.cache.Len()
	rq.mu.Unlock()
	if cached != offered {
		t.Fatalf("queue cache holds %d buffers, want all %d recycled", cached, offered)
	}
}

// TestTxBatchChunkingAccounting: a burst larger than BatchSize goes out
// in BatchSize chunks; a short send on a later chunk drop-tails only the
// remainder, and the totals stay exact across chunks.
func TestTxBatchChunkingAccounting(t *testing.T) {
	const offered = 10                           // BatchSize 4: chunks of 4, 4, 2
	fake := &fakeBatchConn{accepts: []int{4, 2}} // second chunk cut at 2
	p, pkts, _ := txPort(t, Config{Queues: 1, RingSize: 64, BatchSize: 4}, fake, offered)

	const wantSent = 6 // 4 + 2; the last 4 (2 from chunk 2, all of chunk 3) drop
	wantBytes := 0
	for _, pkt := range pkts[:wantSent] {
		wantBytes += pkt.Len()
	}
	if sent := p.TxBurstQueue(0, pkts); sent != wantSent {
		t.Fatalf("TxBurstQueue returned %d, want %d", sent, wantSent)
	}
	if fake.calls != 2 {
		t.Fatalf("%d WriteBatch calls, want 2 (full chunk, then the short one ends the burst)", fake.calls)
	}
	if tp, tb := p.Stats.TxPackets.Load(), p.Stats.TxBytes.Load(); tp != wantSent || tb != uint64(wantBytes) {
		t.Fatalf("chunked accounting: tx_packets=%d tx_bytes=%d, want %d/%d", tp, tb, wantSent, wantBytes)
	}
	if te := p.Stats.TxErrors.Load(); te != offered-wantSent {
		t.Fatalf("tx_errors=%d, want %d", te, offered-wantSent)
	}
	if tbat := p.Stats.TxBatches.Load(); tbat != 2 {
		t.Fatalf("tx_batches=%d, want 2", tbat)
	}
	rq := p.queues[0]
	rq.mu.Lock()
	cached := rq.cache.Len()
	rq.mu.Unlock()
	if cached != offered {
		t.Fatalf("queue cache holds %d buffers, want all %d recycled", cached, offered)
	}
}

// tallyConn counts the payloads it is handed by their first byte, which
// names the caller that sent them, and the bursts that mix two callers.
// It yields before it reads a burst, as a send syscall would, so another
// caller gets to run while the burst is staged.
type tallyConn struct {
	mu    sync.Mutex
	sent  [2]int
	mixed int
}

func (c *tallyConn) BatchCap() int { return maxBurst }

func (c *tallyConn) ReadBatch([][]byte, []int) (int, error) {
	panic("tallyConn: unexpected ReadBatch")
}

func (c *tallyConn) WriteBatch(payloads [][]byte, _ *net.UDPAddr) (int, error) {
	runtime.Gosched()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pl := range payloads {
		c.sent[pl[0]]++
		if pl[0] != payloads[0][0] {
			c.mixed++
		}
	}
	return len(payloads), nil
}

// TestTxTwoCallersOneQueue: two goroutines transmit on one queue, as a
// serve abandoned by a hang verdict does when it settles beside its
// successor. Each burst reaches the wire whole — only its caller's
// frames, each once — and every buffer recycles.
func TestTxTwoCallersOneQueue(t *testing.T) {
	const rounds, burst = 200, 8
	tally := &tallyConn{}
	p, _, _ := txPort(t, Config{Queues: 1, RingSize: 64, BatchSize: burst}, tally, 0)
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkts := make([]*packet.Packet, burst)
			for range rounds {
				for i := range pkts {
					pkt, err := p.pool.Get()
					if err != nil {
						t.Error(err)
						return
					}
					pkt.Data = append(pkt.Data[:0], byte(c))
					pkts[i] = pkt
				}
				if sent := p.TxBurstQueue(0, pkts); sent != burst {
					t.Errorf("caller %d: TxBurstQueue returned %d, want %d", c, sent, burst)
				}
			}
		}()
	}
	wg.Wait()
	if tally.sent != [2]int{rounds * burst, rounds * burst} || tally.mixed != 0 {
		t.Fatalf("frames on the wire per caller %v, %d in mixed bursts; want %d each, none mixed",
			tally.sent, tally.mixed, rounds*burst)
	}
}

// TestReusePortFanOut (property test, satellite): with an SO_REUSEPORT
// group and a source-port-diverse generator, the kernel spreads sockets'
// flows across the per-queue receive loops. Two properties must hold
// everywhere the mode runs: exact accounting, and outer-flow affinity —
// every datagram from one generator socket lands on the same queue, so
// per-flow ordering survives the fan-out. Balance is the kernel's
// business: it is checked with a chi-squared test at 99.9% and skips —
// not fails — when the kernel's hash spreads poorly, and the whole test
// skips on platforms without REUSEPORT groups.
func TestReusePortFanOut(t *testing.T) {
	if !reusePortAvailable {
		t.Skip("SO_REUSEPORT groups unsupported on this platform; distributor fallback is covered by the other tests")
	}
	const queues, flows, sockets, count = 4, 128, 64, 1000
	p, err := Open(Config{
		Listen:     "127.0.0.1:0",
		Queues:     queues,
		RingSize:   1024, // worst-case hash imbalance still fits one ring
		ReusePort:  true,
		PollWait:   5 * time.Millisecond,
		ReadBuffer: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	if !p.ReusePortActive() {
		t.Fatal("ReusePort requested and available, but the port fell back to the distributor")
	}

	base := testSpec()
	gen := &Pktgen{Target: p.Addr().String(), Base: base, Flows: flows,
		Sockets: sockets, Count: count, PPS: 200000}
	sent, err := gen.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sent != count {
		t.Fatalf("pktgen sent %d, want %d", sent, count)
	}

	// Let the receive loops drain the kernel buffers, then collect.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats.RxDatagrams.Load() < count && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	accounted(t, p)
	if p.Stats.ParseError.Load() != 0 || p.Stats.PoolEmpty.Load() != 0 || p.Stats.RingFull.Load() != 0 {
		t.Fatalf("unexpected drops: ring_full=%d parse_error=%d pool_empty=%d",
			p.Stats.RingFull.Load(), p.Stats.ParseError.Load(), p.Stats.PoolEmpty.Load())
	}

	// Drain every queue; map each datagram back to its generator socket
	// (flow f sends through socket f%Sockets) and pin socket→queue.
	sockQueue := map[int]int{}
	perQueue := make([]int, queues)
	buf := make([]*packet.Packet, 64)
	var drained uint64
	for q := 0; q < queues; q++ {
		for {
			n := p.RxBurstQueue(q, buf)
			if n == 0 {
				break
			}
			for _, pkt := range buf[:n] {
				flow := int(pkt.Tuple().SrcIP - base.Tuple.SrcIP)
				sock := flow % sockets
				if prev, pinned := sockQueue[sock]; pinned && prev != q {
					t.Fatalf("socket %d split across queues %d and %d: outer-flow affinity broken", sock, prev, q)
				}
				sockQueue[sock] = q
				perQueue[q]++
			}
			drained += uint64(n)
			p.FreeQueue(q, buf[:n])
		}
	}
	if drained != p.Stats.RxPackets.Load() {
		t.Fatalf("drained %d, delivered counter says %d", drained, p.Stats.RxPackets.Load())
	}
	if drained == 0 {
		t.Fatal("nothing delivered (kernel dropped the whole run?)")
	}
	t.Logf("reuseport fan-out: %d/%d datagrams, %d sockets → queues %v", drained, sent, len(sockQueue), perQueue)

	// Balance: chi-squared over socket→queue assignments (99.9%,
	// df=queues-1, same idiom as the RETA property test). The kernel
	// does not promise a balanced hash on every boot seed, so a poor
	// spread skips rather than fails.
	critical := map[int]float64{2: 10.83, 4: 16.27, 8: 24.32}
	obs := make([]int, queues)
	for _, q := range sockQueue {
		obs[q]++
	}
	expected := float64(len(sockQueue)) / float64(queues)
	var chi2 float64
	for _, c := range obs {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if crit := critical[queues]; chi2 > crit {
		t.Skipf("kernel REUSEPORT hash spread %v (chi-squared %.2f > %.2f); balance is kernel-dependent — skipping", obs, chi2, crit)
	}
}
