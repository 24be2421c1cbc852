package main

import (
	"sync/atomic"
	"time"

	"repro/internal/netbricks"
	"repro/internal/packet"
)

// queueCount is one queue's packet counters, padded so two workers'
// counters never share a cache line.
type queueCount struct {
	rx, tx, freed atomic.Uint64
	idle          atomic.Uint64 // receive polls that returned nothing
	lastRx        atomic.Int64  // wire only: ns after base of the last packet
	_             [24]byte
}

// wireQuiet is how long a socket queue must stay silent after stop before
// the run ends: longer than the generator outlasts the NF's window.
const wireQuiet = 200 * time.Millisecond

// phasePort is the harness wrapper around the NF's port. It fixes the run
// length — once stop is set RxBurstQueue returns 0, and the runner's
// feeders conclude the wire is quiet — counts packets at the boundary,
// and in the traced run records the port.rx / port.tx spans.
type phasePort struct {
	inner netbricks.BurstPort
	// wire is set for a socket port: traffic arrives from outside, so
	// before the first packet an empty poll is retried rather than
	// reported (the feeders give up after 8 empty polls), and after stop
	// each queue keeps draining until a poll comes back empty, so that
	// every packet the generator sent is accounted for.
	wire    bool
	started atomic.Bool
	stop    atomic.Bool
	quiet   []atomic.Bool
	giveUp  time.Time // stop waiting for a first packet

	base    time.Time
	firstTx atomic.Int64 // ns after base of the first forwarded packet
	q       []queueCount
	tr      *spanTrace // nil in the untraced run
}

func newPhasePort(inner netbricks.BurstPort, base time.Time, wire bool, tr *spanTrace) *phasePort {
	return &phasePort{
		inner: inner, wire: wire, base: base, tr: tr,
		quiet:  make([]atomic.Bool, inner.Queues()),
		q:      make([]queueCount, inner.Queues()),
		giveUp: time.Now().Add(20 * time.Second),
	}
}

func (p *phasePort) Queues() int { return p.inner.Queues() }

func (p *phasePort) RxBurstQueue(q int, out []*packet.Packet) int {
	for {
		if p.stop.Load() && (!p.wire || p.quiet[q].Load()) {
			return 0
		}
		var t0 int64
		if p.tr != nil {
			t0 = p.tr.now()
		}
		n := p.inner.RxBurstQueue(q, out)
		if p.tr != nil {
			p.tr.workers[q].rx(t0, p.tr.now(), out[:n])
		}
		if n > 0 {
			p.started.Store(true)
			p.q[q].rx.Add(uint64(n))
			if p.wire {
				p.q[q].lastRx.Store(int64(time.Since(p.base)))
			}
			return n
		}
		switch {
		case !p.wire:
		case p.stop.Load():
			// An empty poll is not silence (netport wakes a poller
			// early when a packet raced the previous poll): the queue
			// is quiet once nothing has arrived for wireQuiet.
			if time.Since(p.base)-time.Duration(p.q[q].lastRx.Load()) < wireQuiet {
				continue
			}
			p.quiet[q].Store(true)
			return 0
		case !p.started.Load() && time.Now().Before(p.giveUp):
			continue
		}
		p.q[q].idle.Add(1)
		return 0
	}
}

func (p *phasePort) TxBurstQueue(q int, pkts []*packet.Packet) int {
	var t0 int64
	if p.tr != nil {
		t0 = p.tr.now()
	}
	if p.wire {
		// Note the queue in a spare payload byte, as a NIC stamps
		// metadata: the generator reads it to pick source sockets that
		// split evenly over the queues (see gen.go).
		for _, pkt := range pkts {
			if pkt != nil && len(pkt.Data) == frameLen {
				pkt.Data[queueOff] = byte(q + 1)
			}
		}
	}
	sent := p.inner.TxBurstQueue(q, pkts)
	if p.tr != nil {
		p.tr.workers[q].tx(t0, p.tr.now(), sent)
	}
	if sent > 0 {
		p.q[q].tx.Add(uint64(sent))
		if p.firstTx.Load() == 0 {
			p.firstTx.CompareAndSwap(0, int64(time.Since(p.base)))
		}
	}
	return sent
}

func (p *phasePort) FreeQueue(q int, pkts []*packet.Packet) {
	p.inner.FreeQueue(q, pkts)
	n := 0
	for _, pkt := range pkts {
		if pkt != nil {
			n++
		}
	}
	p.q[q].freed.Add(uint64(n))
}

func (p *phasePort) Drain() { p.inner.Drain() }

// totals sums a counter over the queues.
func (p *phasePort) totals() (rx, tx, freed, idle uint64) {
	for i := range p.q {
		rx += p.q[i].rx.Load()
		tx += p.q[i].tx.Load()
		freed += p.q[i].freed.Load()
		idle += p.q[i].idle.Load()
	}
	return
}

var _ netbricks.BurstPort = (*phasePort)(nil)
