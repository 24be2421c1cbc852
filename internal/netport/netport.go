// Package netport is the socket-backed network port: the same
// RxBurst/TxBurst/Free code path as the simulated NIC in internal/dpdk,
// but fed by a real UDP socket, so the bytes crossing the
// protection-domain boundary arrived from outside the process.
//
// The wire format is an overlay: each UDP datagram's payload is one
// complete Ethernet frame (the same Ethernet/IPv4/{TCP,UDP} framing
// packet.Build produces and packet.Parse validates), the way a
// VXLAN-style tunnel or a userspace virtio backend would carry frames.
// Pktgen in this package — and the pktgen command over it — produces
// that format, so one process can drive another over loopback.
//
// Ingress is batched: one recvmmsg copies a whole burst of datagrams
// into the receive loop's fixed read buffers, and the loop then copies
// each datagram into the smallest room of an mbuf from the port mempool
// that holds it (packet.Packet.Room) and parses, steers, and enqueues the
// frame on a bounded ingress ring for a worker to poll. Everything after
// that second, user-space copy — at most 128 bytes for a small frame, and
// cheap next to the syscall — is by-reference ownership transfer. The
// syscall cost is paid once per burst, not once per frame (on non-Linux
// builds a portable fallback reads one datagram per call with identical
// semantics). Egress mirrors it: TxBurstQueue drains a worker's batch
// through one sendmmsg with exact partial-send accounting.
//
// Two fan-out modes decide which ring a frame lands on:
//
//   - Distributor (default, and the only mode off Linux): one socket,
//     one receive loop, software RSS — the frame's inner five-tuple is
//     Toeplitz-hashed and RETA-steered to a queue, exactly like the
//     simulated multi-queue port.
//   - SO_REUSEPORT (Config.ReusePort, Linux): one socket per queue, all
//     bound to the same address, each with its own receive loop feeding
//     its own ring. The kernel hashes the outer flow across the group —
//     RSS fan-out without a software distributor goroutine on the hot
//     path. Flow affinity holds per outer flow, so senders provide
//     source-port entropy (Pktgen.Sockets), the way VXLAN encapsulators
//     derive outer source ports from inner flow hashes.
//
// Overload is shed at the rings, drop-tail, never absorbed unbounded:
//
//   - ring_full: the destination queue's ring is full — the worker is
//     not draining fast enough (the rx_missed of real NICs);
//   - parse_error: the payload is not a well-formed frame (including
//     datagrams at or beyond the mbuf size, which the kernel would have
//     truncated);
//   - pool_empty: no mbuf was free; the datagram, read like any other,
//     is discarded.
//
// Each cause has its own counter, every shed datagram is recorded in the
// flight recorder, and a high/low-watermark gauge per queue exposes
// backpressure before drops start. Total accounting is exact:
//
//	rx_datagrams == rx_packets + ring_full + parse_error + pool_empty
//
// holds whenever the receive loops are quiescent — every datagram read
// off a socket is either delivered to a ring or counted under exactly
// one cause — which the end-to-end overload test asserts.
//
// Memory is DPDK's layout with two rooms per mbuf (packet.NewPool): a
// port's packet data is two arenas, one of 128-byte rooms and one of
// MbufSize rooms, and the mempool is a free list over mbuf headers it
// makes a chunk at a time on first use — two allocations at Open however
// large the pool, and neither the headers nor the data pages traffic
// never reaches are ever made resident. A frame of at most 128 bytes
// touches only its mbuf's small room.
package netport

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mempool"
	"repro/internal/packet"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// MbufSize is the size of an mbuf's large data room and of each receive
// loop's read buffers, matching internal/dpdk's conventional 2 KiB. A
// datagram that does not fit below this size is counted as a parse_error
// drop: the kernel silently truncates reads into a full buffer, so a
// read of MbufSize bytes cannot be distinguished from a truncated larger
// frame and is rejected.
const MbufSize = 2048

// DefaultBatch is the default burst size for the batched syscalls —
// matching the runners' conventional 32-packet batch, so one recvmmsg
// fills one pipeline batch.
const DefaultBatch = 32

// Drop causes, used as the flight-recorder EvDrop argument so a recorder
// dump shows why ingress shed each datagram.
const (
	DropRingFull uint64 = iota + 1
	DropParseError
	DropPoolEmpty
)

// Stats holds the port's cumulative counters — telemetry cells, written
// on the data path with uncontended atomic adds and readable by a
// metrics scrape at any time.
type Stats struct {
	// RxDatagrams counts every datagram read off a socket, delivered
	// or shed. RxDatagrams == RxPackets + the three drop counters.
	RxDatagrams telemetry.Counter
	// RxBatches counts non-empty batch reads; RxDatagrams/RxBatches is
	// the realized burst occupancy — how many frames each syscall
	// actually carried.
	RxBatches telemetry.Counter
	// RxPackets/RxBytes count frames delivered to an ingress ring.
	RxPackets telemetry.Counter
	RxBytes   telemetry.Counter
	TxPackets telemetry.Counter
	TxBytes   telemetry.Counter
	// TxBatches counts egress batch writes (sendmmsg calls with a tx
	// target configured).
	TxBatches telemetry.Counter
	// TxErrors counts frames the kernel did not accept — failed writes
	// and the drop-tailed remainder of a short batch send. The buffers
	// are recycled regardless; a wire error must not leak an mbuf, and
	// TxPackets + TxErrors always equals the frames offered for egress.
	TxErrors telemetry.Counter
	// RxSocketErrors counts transient socket read errors.
	RxSocketErrors telemetry.Counter

	// Per-cause ingress drop counters; see the package comment.
	RingFull   telemetry.Counter
	ParseError telemetry.Counter
	PoolEmpty  telemetry.Counter

	// Backpressure is the number of receive queues currently above their
	// high watermark (0 = every ring comfortably below; it clears only
	// once a ring drains under the low watermark, so the gauge does not
	// flap at the threshold).
	Backpressure telemetry.Gauge
}

// Config parameterizes Open.
type Config struct {
	// Listen is the UDP address to receive on, e.g. "127.0.0.1:0".
	Listen string
	// Queues is the number of receive queues (default 1); flows are
	// RSS-steered across them — by the kernel's REUSEPORT hash or the
	// software RETA — so one worker per queue sees complete flows.
	Queues int
	// BatchSize is the datagram burst one batched syscall moves
	// (default DefaultBatch, clamped to [1, 512]). Receive loops read up
	// to this many datagrams per call; TxBurstQueue sends up to this many
	// frames per sendmmsg.
	BatchSize int
	// ReusePort opens one socket per queue in an SO_REUSEPORT group so
	// the kernel fans flows out across the receive loops (Linux only;
	// needs source-port entropy from senders). When unavailable the
	// port falls back to the single-socket software distributor —
	// check ReusePortActive to see which mode is live.
	ReusePort bool
	// PoolSize is the mbuf count (default: enough to fill every ring and
	// cache, plus a burst per queue and 1024 spare for in-flight batches).
	PoolSize int
	// RingSize bounds each queue's ingress ring in datagrams (default
	// 1024, rounded up to a power of two). This is the overload-shedding
	// boundary: when a ring is full, new datagrams for that queue drop.
	RingSize int
	// CacheSize bounds each queue's local mempool cache (default
	// mempool.DefaultCacheSize, clamped to the pool size).
	CacheSize int
	// PollWait is how long RxBurstQueue blocks for traffic when the ring
	// is empty before returning 0 (default 1ms). Runners treat a run of
	// empty polls as end-of-traffic, so PollWait sets their patience.
	PollWait time.Duration
	// TxTarget, when set, is the UDP address transmitted frames are sent
	// to (one datagram per frame, same overlay format as ingress). When
	// empty the port is a sink: TxBurst counts and recycles only.
	TxTarget string
	// ReadBuffer requests SO_RCVBUF bytes on each socket (0 = kernel
	// default). The kernel caps it at net.core.rmem_max.
	ReadBuffer int
	// Recorder, when non-nil, receives an EvDrop event (arg = drop
	// cause) for every shed datagram and backpressure edge events.
	Recorder *telemetry.Recorder
	// Tracer, when non-nil, samples packet traces at ingress: each
	// receive loop arms ~1/N delivered frames (span carried in the
	// mbuf), TxBurstQueue completes them, and every drop path —
	// ring-full shed, FreeQueue, Drain — aborts them, so span
	// accounting balances exactly like mbuf accounting.
	Tracer *trace.Tracer
}

// rxQueue is one receive queue: the bounded ingress ring the receive
// loop fills, a wakeup channel so an idle worker needn't spin at full
// rate, and a local mempool cache recycling the owning worker's
// transmitted/freed buffers. The mutex guards the cache (dpdk.Port keeps
// the same discipline); in the intended one-worker-per-queue deployment
// it is uncontended.
type rxQueue struct {
	ring  *mempool.Ring[*packet.Packet]
	ready chan struct{}
	// idle is the one timer every idle poll of this queue reuses, made
	// on the first. It belongs to the worker that owns the queue (the
	// same contract as txbuf) and is stopped with its channel empty
	// whenever RxBurstQueue is not waiting on it.
	idle  *time.Timer
	bp    atomic.Bool     // above high watermark (hysteresis state)
	gauge telemetry.Gauge // 0/1 mirror of bp for the registry

	mu    sync.Mutex
	cache *mempool.Cache[packet.Packet]

	// txbuf stages egress payload slices for WriteBatch; owned by the
	// worker that owns this queue (the TxBurstQueue contract).
	txbuf [][]byte

	actor telemetry.ActorID
}

// rxLoop is one receive loop: the goroutine that owns one socket's read
// side, a private mbuf cache, and the read buffers one batched read
// fills. In REUSEPORT mode there is one loop per queue (queue >= 0); in
// distributor mode a single loop steers by RETA (queue == -1).
type rxLoop struct {
	conn *net.UDPConn
	bc   batchConn
	// queue pins every datagram this loop reads to one ring; -1 steers
	// by the software RETA instead.
	queue int
	done  chan struct{} // loop exited

	// mu guards cache: the loop is the only Get/Put caller, but
	// PoolAvailable scrapes Len from other goroutines. The loop holds it
	// for the whole dispatch of a batch, so every mbuf it takes is back
	// in the cache or on a ring before anyone else can look.
	mu    sync.Mutex
	cache *mempool.Cache[packet.Packet]

	// One batch read: datagram i lands in scratch[i] (MbufSize bytes)
	// and is lens[i] bytes long. No mbuf is checked out across the
	// blocking read, so a dry pool still drains the socket at batch
	// speed, shedding pool_empty.
	scratch [][]byte
	lens    []int

	// samp is this loop's trace sampler (nil when tracing is off): a
	// loop-owned counter, so per-worker sampling needs no atomics.
	samp *trace.Sampler
}

// Port is a UDP-socket-backed burst port. It satisfies
// netbricks.BurstPort; the pipeline runtime cannot tell it from the
// simulated NIC except by the provenance of the bytes.
type Port struct {
	conns  []*net.UDPConn
	loops  []*rxLoop
	txbcs  []batchConn // egress conn per queue (len 1 = shared socket)
	txDst  *net.UDPAddr
	queues []*rxQueue
	pool   *mempool.Pool[packet.Packet]

	reta      *packet.RETA
	rss       *packet.RSSTable // the port key's hash table, resolved once
	pollWait  time.Duration
	batch     int
	cacheSize int
	high      int // ring depth that raises backpressure
	low       int // ring depth that clears it
	reuse     bool

	rec    *telemetry.Recorder
	tracer *trace.Tracer

	closed atomic.Bool

	// Stats is exported for harnesses.
	Stats Stats
}

// Open binds the listen socket(s), builds the queues, and starts the
// receive loop(s). With Config.ReusePort on a supporting platform it
// binds one socket per queue into an SO_REUSEPORT group; otherwise one
// socket feeds the software distributor. The caller must Close the port
// to settle buffer accounting.
func Open(cfg Config) (*Port, error) {
	p, err := newPort(cfg)
	if err != nil {
		return nil, err
	}
	conns, reuse, err := openSockets(cfg)
	if err != nil {
		return nil, err
	}
	p.conns = conns
	p.reuse = reuse
	if cfg.ReadBuffer > 0 {
		for _, c := range conns {
			// Best effort: the kernel clamps to rmem_max.
			_ = c.SetReadBuffer(cfg.ReadBuffer)
		}
	}
	if cfg.TxTarget != "" {
		p.txDst, err = net.ResolveUDPAddr("udp", cfg.TxTarget)
		if err != nil {
			p.closeConns()
			return nil, fmt.Errorf("netport: tx target: %w", err)
		}
	}
	// One loop per socket: the connless placeholder loop newPort built
	// is replaced by socket-backed loops (pinned per queue in REUSEPORT
	// mode, one RETA-steering distributor otherwise).
	p.loops = p.loops[:0]
	p.txbcs = p.txbcs[:0]
	for i, c := range conns {
		bc, err := newBatchConn(c)
		if err != nil {
			p.closeConns()
			return nil, fmt.Errorf("netport: raw conn: %w", err)
		}
		q := -1
		if reuse {
			q = i
		}
		p.loops = append(p.loops, p.newLoop(c, bc, q))
		p.txbcs = append(p.txbcs, bc)
	}
	for _, l := range p.loops {
		go p.runLoop(l)
	}
	return p, nil
}

// openSockets binds the socket set for cfg: an SO_REUSEPORT group of
// Queues sockets when requested and supported, else one plain socket.
// An unsupported platform falls back silently (the portable contract);
// a mid-group bind failure is a real error.
func openSockets(cfg Config) ([]*net.UDPConn, bool, error) {
	queues := max(cfg.Queues, 1)
	if cfg.ReusePort && queues > 1 && reusePortAvailable {
		first, err := listenReusePort(cfg.Listen)
		if err != nil {
			return nil, false, fmt.Errorf("netport: reuseport listen: %w", err)
		}
		conns := []*net.UDPConn{first}
		// The rest of the group binds the kernel-resolved address, so
		// ":0" works: every socket shares the one chosen port.
		addr := first.LocalAddr().String()
		for q := 1; q < queues; q++ {
			c, err := listenReusePort(addr)
			if err != nil {
				for _, pc := range conns {
					pc.Close()
				}
				return nil, false, fmt.Errorf("netport: reuseport group bind %d: %w", q, err)
			}
			conns = append(conns, c)
		}
		return conns, true, nil
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, false, fmt.Errorf("netport: listen address: %w", err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("netport: %w", err)
	}
	return []*net.UDPConn{conn}, false, nil
}

// newPort builds the socketless core — pool, queues, steering, and one
// connless distributor loop. Tests and the fuzz target use it directly
// to drive the deliver path without a kernel in the loop.
func newPort(cfg Config) (*Port, error) {
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = time.Millisecond
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatch
	}
	if cfg.BatchSize > maxBurst {
		cfg.BatchSize = maxBurst
	}
	cache := cfg.CacheSize
	if cache <= 0 {
		cache = mempool.DefaultCacheSize
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = cfg.Queues*(cfg.RingSize+2*cache+cfg.BatchSize) + 1024
	}
	p := &Port{
		rss:      packet.RSSTableFor(packet.DefaultRSSKey),
		reta:     packet.NewRETA(cfg.Queues, 0),
		pollWait: cfg.PollWait,
		batch:    cfg.BatchSize,
		rec:      cfg.Recorder,
		tracer:   cfg.Tracer,
		pool:     packet.NewPool(cfg.PoolSize, MbufSize),
	}
	p.cacheSize = cfg.CacheSize
	for q := 0; q < cfg.Queues; q++ {
		rq := &rxQueue{
			ring:  mempool.NewRing[*packet.Packet](cfg.RingSize),
			ready: make(chan struct{}, 1),
			cache: mempool.NewCache(p.pool, cfg.CacheSize),
			actor: p.rec.Actor("netport/rxq" + strconv.Itoa(q)),
		}
		p.queues = append(p.queues, rq)
	}
	// Watermarks: raise backpressure at 3/4 ring, clear below 1/4. The
	// ring constructor rounds to a power of two, so read it back.
	size := p.queues[0].ring.Capacity()
	p.high = size * 3 / 4
	p.low = size / 4
	// Socketless placeholder loop: inject (tests, fuzzing) dispatches
	// through it exactly like a socket-backed loop would.
	p.loops = []*rxLoop{p.newLoop(nil, nil, -1)}
	return p, nil
}

// maxBurst caps BatchSize and so each receive loop's read buffers; one
// syscall cannot carry more than the batchConn's BatchCap anyway.
const maxBurst = 512

// newLoop builds one receive loop's state sized to the port's batch.
func (p *Port) newLoop(conn *net.UDPConn, bc batchConn, queue int) *rxLoop {
	b := p.batch
	if bc != nil {
		b = min(b, bc.BatchCap())
	}
	l := &rxLoop{
		conn:    conn,
		bc:      bc,
		queue:   queue,
		done:    make(chan struct{}),
		cache:   mempool.NewCache(p.pool, p.cacheSize),
		scratch: make([][]byte, b),
		lens:    make([]int, b),
		samp:    p.tracer.NewSampler(),
	}
	for i := range l.scratch {
		l.scratch[i] = make([]byte, MbufSize)
	}
	return l
}

// Addr reports the bound listen address (nil for a socketless test
// port) — tests bind to ":0" and read the kernel-chosen port here.
func (p *Port) Addr() net.Addr {
	if len(p.conns) == 0 {
		return nil
	}
	return p.conns[0].LocalAddr()
}

// Queues reports the number of receive queues.
func (p *Port) Queues() int { return len(p.queues) }

// ReusePortActive reports whether the port is running kernel REUSEPORT
// fan-out (one socket per queue) rather than the software distributor.
func (p *Port) ReusePortActive() bool { return p.reuse }

// runLoop is one receive loop: let the kernel copy a batch of datagrams
// into the loop's read buffers with one call, dispatch each.
func (p *Port) runLoop(l *rxLoop) {
	defer close(l.done)
	for {
		n, err := l.bc.ReadBatch(l.scratch, l.lens)
		if err != nil {
			if p.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			p.Stats.RxSocketErrors.Inc()
			continue
		}
		p.dispatch(l, n)
	}
}

// dispatch accounts one batch read of n datagrams, each in the loop's
// read buffers, delivering or shedding each under the loop's lock.
func (p *Port) dispatch(l *rxLoop, n int) {
	if n > 0 {
		p.Stats.RxBatches.Inc()
	}
	l.mu.Lock()
	for i := 0; i < n; i++ {
		p.deliver(l, l.scratch[i][:l.lens[i]])
	}
	l.mu.Unlock()
}

// deliver is the per-datagram ingress path after the kernel copy, run
// with l.mu held: copy the datagram into the smallest room of an mbuf
// that holds it, then parse, steer, enqueue-or-shed. The mbuf goes to a
// ring or back to the loop's cache before deliver returns.
func (p *Port) deliver(l *rxLoop, dgram []byte) {
	if len(dgram) >= MbufSize {
		// Possibly truncated by the kernel read; reject (see MbufSize).
		p.shed(&p.Stats.ParseError, DropParseError, 0)
		return
	}
	pkt, err := l.cache.Get()
	if err != nil {
		p.shed(&p.Stats.PoolEmpty, DropPoolEmpty, 0)
		return
	}
	pkt.Data = append(pkt.Room(len(dgram)), dgram...)
	pkt.Reset()
	if err := pkt.Parse(); err != nil {
		l.cache.Put(pkt)
		p.shed(&p.Stats.ParseError, DropParseError, 0)
		return
	}
	q := l.queue
	if q < 0 {
		q = p.reta.Queue(p.rss.HashTuple(pkt.Tuple()))
	}
	// Arm the sampled trace while this loop still owns the mbuf — after
	// enqueue a worker may already be stamping it. The untraced path
	// pays one counter increment and branch here, nothing else.
	l.samp.MaybeArm(&pkt.Trace, q)
	rq := p.queues[q]
	if rq.ring.Enqueue(pkt) != nil {
		p.tracer.Abort(&pkt.Trace) // armed span sheds with its mbuf
		l.cache.Put(pkt)
		p.shed(&p.Stats.RingFull, DropRingFull, rq.actor)
		return
	}
	p.Stats.RxPackets.Inc()
	p.Stats.RxBytes.Add(uint64(len(dgram)))
	p.Stats.RxDatagrams.Inc()
	if !rq.bp.Load() && rq.ring.Len() >= p.high && rq.bp.CompareAndSwap(false, true) {
		rq.gauge.Set(1)
		p.Stats.Backpressure.Add(1)
	}
	select {
	case rq.ready <- struct{}{}:
	default:
	}
}

// shed accounts one dropped datagram: per-cause counter, the total, and
// a flight-recorder event so drops are visible in a post-mortem dump.
func (p *Port) shed(c *telemetry.Counter, cause uint64, actor telemetry.ActorID) {
	c.Inc()
	p.Stats.RxDatagrams.Inc()
	p.rec.Record(actor, telemetry.EvDrop, cause)
}

// RxBurstQueue fills out with up to len(out) packets from receive queue
// q, returning the count. When the ring is empty it blocks up to
// PollWait for the receive loop's wakeup before returning 0 — so a
// polling worker neither spins hot on an idle wire nor misses a burst
// that lands mid-poll.
func (p *Port) RxBurstQueue(q int, out []*packet.Packet) int {
	rq := p.queue(q)
	n := rq.ring.DequeueBurst(out)
	if n == 0 && !p.closed.Load() {
		rq.wait(p.pollWait)
		n = rq.ring.DequeueBurst(out)
	}
	if n > 0 && rq.bp.Load() && rq.ring.Len() <= p.low && rq.bp.CompareAndSwap(true, false) {
		rq.gauge.Set(0)
		p.Stats.Backpressure.Add(-1)
	}
	return n
}

// wait blocks until the receive loop signals ready or d passes, on the
// queue's one reused timer: an idle poll allocates nothing. The timer is
// handed back stopped with its channel empty. When ready wins but Stop
// reports the timer already fired, the tick is received here — it is in
// the channel or on its way — because left behind it would end the next
// idle poll at once. That is the pre-Go-1.23 contract, the one a go.mod
// below 1.23 selects; under the 1.23 semantics Stop discards the unread
// tick itself and returns true, so the receive is never reached and
// cannot block.
func (rq *rxQueue) wait(d time.Duration) {
	t := rq.idle
	if t == nil {
		t = time.NewTimer(d)
		rq.idle = t
	} else {
		t.Reset(d)
	}
	select {
	case <-rq.ready:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
	}
}

// TxBurstQueue transmits pkts from the worker owning queue q — one
// batched send of UDP datagrams, one per frame, to the configured
// TxTarget (pure accounting when the port is a sink) — and recycles the
// buffers through the queue's local cache, returning the number of
// datagrams the kernel accepted.
//
// Accounting is exact under partial sends: a batch the kernel cuts short
// at k<n frames counts exactly k in TxPackets/TxBytes/sent — the
// unaccepted tail counts TxErrors and is drop-tailed, never silently
// reported as delivered — and all n buffers recycle regardless: a wire
// error never leaks an mbuf. In REUSEPORT mode each queue transmits
// through its own socket; concurrent callers on different queues are
// safe in every mode.
func (p *Port) TxBurstQueue(q int, pkts []*packet.Packet) int {
	rq := p.queue(q)
	sent := 0
	var bytes uint64
	if p.txDst == nil {
		// Sink mode: every frame "transmits".
		for _, pkt := range pkts {
			if pkt != nil {
				sent++
				bytes += uint64(pkt.Len())
			}
		}
	} else {
		payloads := rq.txbuf[:0]
		for _, pkt := range pkts {
			if pkt != nil {
				payloads = append(payloads, pkt.Data)
			}
		}
		rq.txbuf = payloads[:0] // keep the grown backing array
		bc := p.txbcs[min(q, len(p.txbcs)-1)]
		for off := 0; off < len(payloads); {
			burst := payloads[off:min(off+p.batch, len(payloads))]
			k, err := bc.WriteBatch(burst, p.txDst)
			p.Stats.TxBatches.Inc()
			for i := 0; i < k; i++ {
				bytes += uint64(len(burst[i]))
			}
			sent += k
			off += k
			if err != nil || k < len(burst) {
				// Short or failed send: the rest of the burst is
				// drop-tailed, counted, and recycled below.
				p.Stats.TxErrors.Add(uint64(len(payloads) - off))
				break
			}
		}
	}
	p.Stats.TxPackets.Add(uint64(sent))
	p.Stats.TxBytes.Add(bytes)
	if p.tracer != nil {
		// Complete sampled traces at TX, while the worker still owns the
		// buffers: stamps StageTx, feeds the per-stage histograms, and
		// publishes the full vector to /debug/traces.
		for _, pkt := range pkts {
			if pkt != nil && pkt.Trace.Armed() {
				p.tracer.Complete(&pkt.Trace)
			}
		}
	}
	rq.mu.Lock()
	for _, pkt := range pkts {
		if pkt != nil {
			rq.cache.Put(pkt)
		}
	}
	rq.mu.Unlock()
	return sent
}

// FreeQueue returns packets to queue q's local cache without
// transmitting them (drops).
func (p *Port) FreeQueue(q int, pkts []*packet.Packet) {
	rq := p.queue(q)
	if p.tracer != nil {
		// A freed (not transmitted) packet ends any sampled trace as a
		// truncated span: NF drops, faulted batches, and reclaimed
		// mailbox payloads all surface as EvTraceAbort, never a leak.
		for _, pkt := range pkts {
			if pkt != nil && pkt.Trace.Armed() {
				p.tracer.Abort(&pkt.Trace)
			}
		}
	}
	rq.mu.Lock()
	for _, pkt := range pkts {
		if pkt != nil {
			rq.cache.Put(pkt)
		}
	}
	rq.mu.Unlock()
}

// Drain consolidates undelivered ring descriptors and the per-queue
// caches back into the shared pool, once the workers have stopped.
// Unlike the simulated port, the receive loops stay live: datagrams
// arriving after Drain land in the rings again, and only Close settles
// the pool for good.
func (p *Port) Drain() {
	for _, rq := range p.queues {
		for {
			pkt, err := rq.ring.Dequeue()
			if err != nil {
				break
			}
			p.tracer.Abort(&pkt.Trace) // undelivered at shutdown: truncated span
			p.pool.Put(pkt)
		}
		rq.mu.Lock()
		rq.cache.Flush()
		rq.mu.Unlock()
	}
}

// Close stops the receive loops, closes the sockets, and returns every
// buffer to the pool. After Close, PoolAvailable equals the pool
// capacity unless a caller still holds packets.
func (p *Port) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	for _, c := range p.conns {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	for _, l := range p.loops {
		if l.conn != nil {
			<-l.done // receive loop exits on the closed socket
		}
		l.mu.Lock()
		l.cache.Flush()
		l.mu.Unlock()
	}
	p.Drain()
	return err
}

// closeConns tears down a half-built Open.
func (p *Port) closeConns() {
	for _, c := range p.conns {
		c.Close()
	}
}

// PoolAvailable reports free mbufs — in the shared pool, every receive
// loop's cache, and every queue's cache — for leak assertions in tests.
// Only buffers held by in-flight packets (rings and batches) are
// excluded. Every transfer between the pool and a cache happens under
// that loop's or queue's lock, and a receive loop hands each mbuf it
// takes to a ring or back to its cache under the same lock, so the count
// is taken with all of them held: one exact snapshot even while a
// receive loop is dispatching (read piecemeal, a burst moving from a
// cache to the loop between two reads showed up as a 96-mbuf leak in
// TestE2EOverloadSheds under -race).
func (p *Port) PoolAvailable() int {
	for _, l := range p.loops {
		l.mu.Lock()
	}
	for _, rq := range p.queues {
		rq.mu.Lock()
	}
	n := p.pool.Available()
	for _, l := range p.loops {
		n += l.cache.Len()
		l.mu.Unlock()
	}
	for _, rq := range p.queues {
		n += rq.cache.Len()
		rq.mu.Unlock()
	}
	return n
}

// PoolCapacity reports the mbuf pool's fixed capacity.
func (p *Port) PoolCapacity() int { return p.pool.Capacity() }

// RegisterMetrics exports the port's counters, the per-cause drop
// counters (labelled cause=ring_full|parse_error|pool_empty), the
// backpressure gauges, the mempool, and every queue's ring depth and
// cache on reg. base labels every series; queues add a "queue" label.
// Only the mbufs traffic ever reached are made, and only the rooms their
// frames were written into are backed by pages, so a port whose frames
// are all small keeps its base plus
// (pool_capacity - pool_min_available) x (header + 128 B) resident, to
// within a chunk.
func (p *Port) RegisterMetrics(reg *telemetry.Registry, base telemetry.Labels) {
	reg.RegisterCounter("port_rx_datagrams_total", base, &p.Stats.RxDatagrams)
	reg.RegisterCounter("port_rx_batches_total", base, &p.Stats.RxBatches)
	reg.RegisterCounter("port_rx_packets_total", base, &p.Stats.RxPackets)
	reg.RegisterCounter("port_rx_bytes_total", base, &p.Stats.RxBytes)
	reg.RegisterCounter("port_tx_packets_total", base, &p.Stats.TxPackets)
	reg.RegisterCounter("port_tx_bytes_total", base, &p.Stats.TxBytes)
	reg.RegisterCounter("port_tx_batches_total", base, &p.Stats.TxBatches)
	reg.RegisterCounter("port_tx_errors_total", base, &p.Stats.TxErrors)
	reg.RegisterCounter("port_rx_socket_errors_total", base, &p.Stats.RxSocketErrors)
	reg.RegisterCounter("port_ingress_drops_total", base.With("cause", "ring_full"), &p.Stats.RingFull)
	reg.RegisterCounter("port_ingress_drops_total", base.With("cause", "parse_error"), &p.Stats.ParseError)
	reg.RegisterCounter("port_ingress_drops_total", base.With("cause", "pool_empty"), &p.Stats.PoolEmpty)
	reg.RegisterGauge("port_rx_backpressure_queues", base, &p.Stats.Backpressure)
	p.pool.RegisterMetrics(reg, base)
	for q, rq := range p.queues {
		rq := rq
		labels := base.With("queue", strconv.Itoa(q))
		reg.RegisterGaugeFunc("port_rx_ring_depth", labels, func() float64 {
			return float64(rq.ring.Len())
		})
		reg.RegisterGauge("port_rx_backpressure", labels, &rq.gauge)
		rq.cache.RegisterMetrics(reg, labels, func() float64 {
			rq.mu.Lock()
			defer rq.mu.Unlock()
			return float64(rq.cache.Len())
		})
	}
}

func (p *Port) queue(q int) *rxQueue {
	if q < 0 || q >= len(p.queues) {
		panic(fmt.Sprintf("netport: queue %d out of range (port has %d)", q, len(p.queues)))
	}
	return p.queues[q]
}
