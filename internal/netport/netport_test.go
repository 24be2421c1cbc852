package netport

import (
	"net"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/mempool"
	"repro/internal/packet"
	"repro/internal/telemetry"
)

// testSpec is a representative 64-byte-payload UDP flow (the same shape
// dpdk.DefaultSpec produces; duplicated here so the wire port does not
// depend on the simulator).
func testSpec() packet.BuildSpec {
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

// flowFrame builds the frame for flow i under the Pktgen flow walk.
func flowFrame(t testing.TB, i int) []byte {
	t.Helper()
	spec := testSpec()
	spec.Tuple.SrcIP += packet.IPv4(i)
	spec.Tuple.SrcPort += uint16(i % 50000)
	frame, err := packet.Build(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// sizedFrame builds a valid size-byte UDP frame of testSpec's flow whose
// payload is all fill.
func sizedFrame(t testing.TB, size int, fill byte) []byte {
	t.Helper()
	spec := testSpec()
	spec.PayloadLen = size - (packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen)
	frame, err := packet.Build(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := size - spec.PayloadLen; i < size; i++ {
		frame[i] = fill
	}
	return frame
}

// checkRoom fails unless pkt's frame sits at the start of the smallest
// of its rooms that holds it: smallRoom bytes up to smallRoom, MbufSize
// beyond.
func checkRoom(t testing.TB, pkt *packet.Packet) {
	t.Helper()
	want := smallRoom
	if pkt.Len() > smallRoom {
		want = MbufSize
	}
	room := pkt.Room(pkt.Len())
	if cap(room) != want || cap(pkt.Data) != want || &pkt.Data[:1][0] != &room[:1][0] {
		t.Fatalf("%d-byte frame in a %d-byte buffer, want the start of its %d-byte room", pkt.Len(), cap(pkt.Data), want)
	}
}

// inject runs one datagram through the ingress path the way a receive
// loop does, minus the socket (see injectBatch).
func (p *Port) inject(data []byte) { p.injectBatch([][]byte{data}) }

// injectBatch runs whole batch reads through the genuine batched
// dispatch path: copy each datagram into the loop's read buffers, as the
// kernel does, then dispatch with the same accounting the socket loop
// uses. Only valid on a socketless newPort port, whose placeholder loop
// has no goroutine contending for the read buffers.
func (p *Port) injectBatch(datagrams [][]byte) {
	l := p.loops[0]
	for off := 0; off < len(datagrams); {
		burst := datagrams[off:min(off+len(l.scratch), len(datagrams))]
		for i, d := range burst {
			// copy caps at MbufSize — the kernel-style truncation.
			l.lens[i] = copy(l.scratch[i], d)
		}
		p.dispatch(l, len(burst))
		off += len(burst)
	}
}

// accounted asserts the exact-accounting invariant: every datagram the
// port saw is either delivered or counted under exactly one drop cause.
func accounted(t *testing.T, p *Port) {
	t.Helper()
	total := p.Stats.RxPackets.Load() + p.Stats.drops()
	if got := p.Stats.RxDatagrams.Load(); got != total {
		t.Fatalf("accounting: rx_datagrams=%d, delivered+drops=%d (ring_full=%d parse_error=%d pool_empty=%d)",
			got, total, p.Stats.RingFull.Load(), p.Stats.ParseError.Load(), p.Stats.PoolEmpty.Load())
	}
}

func TestDeliverSteersByRSS(t *testing.T) {
	p, err := newPort(Config{Queues: 4, RingSize: 256}, 0)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	t.Cleanup(func() { p.Close() })

	const flows = 64
	perQueue := map[int]int{}
	for i := 0; i < flows; i++ {
		spec := testSpec()
		spec.Tuple.SrcIP += packet.IPv4(i)
		spec.Tuple.SrcPort += uint16(i % 50000)
		perQueue[p.rssQueue(spec.Tuple)]++
		p.inject(flowFrame(t, i))
	}
	accounted(t, p)
	if got := p.Stats.RxPackets.Load(); got != flows {
		t.Fatalf("delivered %d of %d valid frames (drops: %d)", got, flows, p.Stats.drops())
	}

	// Every frame must surface on the queue its RSS hash selects.
	buf := make([]*packet.Packet, flows)
	for q := 0; q < p.Queues(); q++ {
		n := p.RxBurstQueue(q, buf)
		if n != perQueue[q] {
			t.Fatalf("queue %d: got %d packets, RSS steering promised %d", q, n, perQueue[q])
		}
		for _, pkt := range buf[:n] {
			if want := p.rssQueue(pkt.Tuple()); want != q {
				t.Fatalf("flow %s on queue %d, RSS says %d", pkt.Tuple(), q, want)
			}
		}
		p.FreeQueue(q, buf[:n])
	}
}

func TestOverloadShedsAtRingWithBackpressure(t *testing.T) {
	rec := telemetry.NewRecorder(64)
	p, err := newPort(Config{Queues: 1, RingSize: 64, Recorder: rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	t.Cleanup(func() { p.Close() })

	// Same flow every time: everything lands on one ring. No one drains,
	// so the ring fills and the tail drops.
	frame := flowFrame(t, 0)
	const offered = 200
	for i := 0; i < offered; i++ {
		p.inject(frame)
	}
	accounted(t, p)
	ringCap := p.queues[0].ring.Capacity()
	if got := p.Stats.RxPackets.Load(); got != uint64(ringCap) {
		t.Fatalf("delivered %d, want exactly the ring capacity %d", got, ringCap)
	}
	if got := p.Stats.RingFull.Load(); got != uint64(offered-ringCap) {
		t.Fatalf("ring_full=%d, want %d (every over-capacity datagram shed drop-tail)", got, offered-ringCap)
	}
	if bp := p.Stats.Backpressure.Load(); bp != 1 {
		t.Fatalf("backpressure gauge = %d with a full ring, want 1", bp)
	}
	// The shed datagrams are visible in the flight recorder.
	var drops int
	for _, ev := range rec.Dump() {
		if ev.Kind == telemetry.EvDrop && ev.Arg == DropRingFull {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("no ring_full drops in the flight recorder")
	}

	// Draining below the low watermark clears backpressure.
	buf := make([]*packet.Packet, 32)
	for p.queues[0].ring.Len() > 0 {
		n := p.RxBurstQueue(0, buf)
		if n == 0 {
			t.Fatal("ring non-empty but burst returned 0")
		}
		p.FreeQueue(0, buf[:n])
	}
	if bp := p.Stats.Backpressure.Load(); bp != 0 {
		t.Fatalf("backpressure gauge = %d after drain, want 0", bp)
	}
}

func TestDeliverShedsMalformed(t *testing.T) {
	p, err := newPort(Config{Queues: 2, RingSize: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	t.Cleanup(func() { p.Close() })

	cases := [][]byte{
		nil,                      // empty datagram
		flowFrame(t, 0)[:10],     // truncated mid-Ethernet
		make([]byte, 64),         // zero ethertype
		make([]byte, MbufSize+4), // oversized: kernel would truncate the read
	}
	// Non-UDP/TCP transport: valid IPv4 with protocol 89 (OSPF).
	bad := flowFrame(t, 0)
	bad[14+9] = 89
	cases = append(cases, bad)

	for _, data := range cases {
		p.inject(data)
	}
	accounted(t, p)
	if got := p.Stats.ParseError.Load(); got != uint64(len(cases)) {
		t.Fatalf("parse_error=%d, want %d", got, len(cases))
	}
	if got := p.Stats.RxPackets.Load(); got != 0 {
		t.Fatalf("%d malformed datagrams delivered", got)
	}
}

func TestPoolExhaustionSheds(t *testing.T) {
	p, err := newPort(Config{Queues: 1, RingSize: 1024, CacheSize: 4}, 32)
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	t.Cleanup(func() { p.Close() })

	frame := flowFrame(t, 0)
	for i := 0; i < 64; i++ {
		p.inject(frame)
	}
	accounted(t, p)
	if got := p.Stats.PoolEmpty.Load(); got == 0 {
		t.Fatal("pool exhausted but no pool_empty drops")
	}
	if got := p.Stats.RxPackets.Load(); got != 32 {
		t.Fatalf("delivered %d, want the full pool of 32", got)
	}
	// Drain so leakcheck balances.
	buf := make([]*packet.Packet, 32)
	n := p.RxBurstQueue(0, buf)
	p.FreeQueue(0, buf[:n])
}

// smallRoom is the size of an mbuf's small data room (packet.NewPool).
const smallRoom = 128

// TestPoolLayout: the port makes no mbuf header before one is drawn;
// every mbuf the pool then hands out has two rooms, an empty window of
// smallRoom bytes and one of MbufSize, each capped at its size; no room
// overlaps another, and growing a frame past its room reallocates instead
// of writing into the neighbour's.
func TestPoolLayout(t *testing.T) {
	p, err := newPort(Config{Queues: 1, RingSize: 16, CacheSize: 4}, 2*mempool.ChunkSize+8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if made := p.pool.Made(); made != 0 {
		t.Fatalf("fresh port made %d headers, want 0", made)
	}
	hdrs := make([]*packet.Packet, p.PoolCapacity())
	if n := p.pool.GetBurst(hdrs); n != len(hdrs) {
		t.Fatalf("pool handed out %d of %d mbufs", n, len(hdrs))
	}
	defer p.pool.PutBurst(hdrs)
	rooms := []struct {
		name        string
		frame, size int  // a frame of this length goes in the room of this size
		paint       byte // XORed into the header index to fill the room
	}{
		{"small", smallRoom, smallRoom, 0},
		{"large", smallRoom + 1, MbufSize, 0xFF},
	}
	// Paint every room of every header; an overlap would be repainted.
	for _, r := range rooms {
		for i, h := range hdrs {
			room := h.Room(r.frame)
			if len(room) != 0 || cap(room) != r.size {
				t.Fatalf("header %d %s room: len %d cap %d, want 0 and %d", i, r.name, len(room), cap(room), r.size)
			}
			room = room[:r.size]
			for j := range room {
				room[j] = byte(i) ^ r.paint
			}
		}
	}
	for _, r := range rooms {
		for i, h := range hdrs {
			room := h.Room(r.frame)[:r.size]
			if want := byte(i) ^ r.paint; room[0] != want || room[r.size-1] != want {
				t.Fatalf("header %d's %s room was overwritten by another room: rooms overlap", i, r.name)
			}
		}
		full := hdrs[0].Room(r.frame)[:r.size]
		if grown := append(full, 0xEE); &grown[0] == &full[0] {
			t.Fatalf("append past the %s room stayed in the arena", r.name)
		}
		for i, h := range hdrs[1:] {
			if got, want := h.Room(r.frame)[:1][0], byte(i+1)^r.paint; got != want {
				t.Fatalf("append past header 0's %s room wrote %#x into header %d's", r.name, got, i+1)
			}
		}
	}
}

func TestLoopbackSocketRxTx(t *testing.T) {
	// Egress sink: a socket whose datagrams we count.
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sunk := make(chan int)
	go func() {
		buf := make([]byte, MbufSize)
		n := 0
		for {
			sink.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			if _, err := sink.Read(buf); err != nil {
				sunk <- n
				return
			}
			n++
		}
	}()

	p, err := Open(Config{
		Listen:   "127.0.0.1:0",
		Queues:   2,
		RingSize: 1024,
		PollWait: 5 * time.Millisecond,
		TxTarget: sink.LocalAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	t.Cleanup(func() { p.Close() })

	const count = 500
	gen := &Pktgen{Target: p.Addr().String(), Base: testSpec(), Flows: 32, Count: count, PPS: 50000}
	sent, err := gen.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sent != count {
		t.Fatalf("pktgen sent %d, want %d", sent, count)
	}

	// Drain both queues until the offered load is fully accounted (the
	// kernel may still be handing datagrams to the receive loop).
	buf := make([]*packet.Packet, 64)
	deadline := time.Now().Add(5 * time.Second)
	var forwarded uint64
	for p.Stats.RxDatagrams.Load() < count && time.Now().Before(deadline) {
		for q := 0; q < p.Queues(); q++ {
			n := p.RxBurstQueue(q, buf)
			forwarded += uint64(p.TxBurstQueue(q, buf[:n]))
		}
	}
	for q := 0; q < p.Queues(); q++ { // final sweep
		n := p.RxBurstQueue(q, buf)
		forwarded += uint64(p.TxBurstQueue(q, buf[:n]))
	}
	accounted(t, p)
	if got := p.Stats.RxDatagrams.Load(); got != count {
		t.Fatalf("port saw %d of %d datagrams (kernel socket drop?)", got, count)
	}
	if p.Stats.RxPackets.Load() == 0 {
		t.Fatal("nothing delivered")
	}
	if forwarded != p.Stats.TxPackets.Load() {
		t.Fatalf("TxBurst returned %d, tx counter says %d", forwarded, p.Stats.TxPackets.Load())
	}

	got := <-sunk
	if got == 0 {
		t.Fatal("egress sink received nothing")
	}
	t.Logf("loopback: %d sent, %d delivered, %d forwarded, %d reached the sink",
		sent, p.Stats.RxPackets.Load(), forwarded, got)
}

// TestE2EMixedFrameSizes: frames on both sides of the small room's edge,
// and one far past it, cross a real loopback socket into the port and
// out through its tx socket. Each delivered mbuf holds its frame in the
// smallest room that fits it, the sink receives every frame byte for
// byte, and rx_datagrams = delivered + drops exactly.
func TestE2EMixedFrameSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e loopback tier skipped in -short")
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	p, err := Open(Config{Listen: "127.0.0.1:0", TxTarget: sink.LocalAddr().String(), ReadBuffer: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	leakcheck.Pool(t, "netport", p.PoolAvailable)
	t.Cleanup(func() { p.Close() })

	var sent [][]byte
	for i := 0; i < 25; i++ {
		for _, size := range []int{64, smallRoom, smallRoom + 1, 1400} {
			sent = append(sent, sizedFrame(t, size, byte(len(sent))))
		}
	}
	sunk := make(chan []byte, len(sent))
	go func() {
		buf := make([]byte, MbufSize)
		for {
			n, err := sink.Read(buf)
			if err != nil {
				return
			}
			sunk <- append([]byte(nil), buf[:n]...)
		}
	}()
	src, err := net.DialUDP("udp", nil, p.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, frame := range sent {
		if _, err := src.Write(frame); err != nil {
			t.Fatal(err)
		}
	}

	unseen := map[string]int{}
	for _, frame := range sent {
		unseen[string(frame)]++
	}
	buf := make([]*packet.Packet, 32)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats.RxDatagrams.Load() < uint64(len(sent)) || p.Stats.TxPackets.Load() < p.Stats.RxPackets.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("port read %d of %d datagrams and sent %d (kernel socket drop?)",
				p.Stats.RxDatagrams.Load(), len(sent), p.Stats.TxPackets.Load())
		}
		n := p.RxBurstQueue(0, buf)
		for _, pkt := range buf[:n] {
			checkRoom(t, pkt)
		}
		p.TxBurstQueue(0, buf[:n])
	}
	accounted(t, p)
	if got := p.Stats.RxPackets.Load(); got != uint64(len(sent)) {
		t.Fatalf("delivered %d of %d well-formed datagrams (drops: %d)", got, len(sent), p.Stats.drops())
	}
	for got := range len(sent) {
		select {
		case frame := <-sunk:
			if unseen[string(frame)] == 0 {
				t.Fatalf("sink received a %d-byte frame the sender never sent", len(frame))
			}
			unseen[string(frame)]--
		case <-time.After(5 * time.Second):
			t.Fatalf("sink received %d of %d frames", got, len(sent))
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	p, err := newPort(Config{Queues: 2, RingSize: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg, telemetry.Labels{"port": "net0"})

	p.inject(flowFrame(t, 0))
	p.inject([]byte{1, 2, 3})

	snap := reg.Snapshot()
	if got := snap[`port_rx_datagrams_total{port="net0"}`]; got != float64(2) {
		t.Fatalf("rx_datagrams metric = %v, want 2", got)
	}
	if got := snap[`port_ingress_drops_total{cause="parse_error",port="net0"}`]; got != float64(1) {
		t.Fatalf("parse_error drop metric = %v, want 1", got)
	}
	for _, key := range []string{
		`port_ingress_drops_total{cause="ring_full",port="net0"}`,
		`port_ingress_drops_total{cause="pool_empty",port="net0"}`,
		`port_rx_ring_depth{port="net0",queue="1"}`,
		`port_rx_backpressure{port="net0",queue="0"}`,
		`port_rx_backpressure_queues{port="net0"}`,
		`pool_available{port="net0"}`,
		`pool_min_available{port="net0"}`,
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("metric %s not registered", key)
		}
	}
	// Settle for pool accounting (not leak-checked here, but keep tidy).
	buf := make([]*packet.Packet, 4)
	for q := 0; q < p.Queues(); q++ {
		n := p.RxBurstQueue(q, buf)
		p.FreeQueue(q, buf[:n])
	}
}
