package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netbricks"
)

// chaosState is one worker's fault schedule. It outlives the operator:
// stage recovery rebuilds chaosOp from its factory, and the count of
// batches seen must carry across the restart. Successive serving
// goroutines use it one after another; the measuring goroutine reads the
// atomics mid-run and the rest after the run.
type chaosState struct {
	base  time.Time
	every int // panic on every every-th batch
	next  int // batch count of the next fault
	seen  int

	panicAt int64 // ns after base of an outstanding fault; 0 = none

	faults     atomic.Uint64
	lostPkts   atomic.Uint64 // packets of the faulted batches
	lostDenied atomic.Uint64 // of those, packets the firewall would have filtered

	mu      sync.Mutex
	outages []outage
}

// outage is one recovery: from the operator's panic to the worker's next
// entry into the operator.
type outage struct {
	at  int64 // ns after base of the panic
	dur int64
}

// newChaosState schedules faults every every batches, the first one
// offset batches later than that (the offset comes from the seed).
func newChaosState(base time.Time, every, offset int) *chaosState {
	return &chaosState{base: base, every: every, next: every + offset}
}

// chaosOp is the harness operator placed ahead of the firewall on
// mem-chaos: it panics on schedule and does nothing else.
type chaosOp struct{ s *chaosState }

func (chaosOp) Name() string { return "chaos" }

func (o chaosOp) ProcessBatch(b *netbricks.Batch) error {
	s := o.s
	if s.panicAt != 0 {
		now := int64(time.Since(s.base))
		s.mu.Lock()
		s.outages = append(s.outages, outage{at: s.panicAt, dur: now - s.panicAt})
		s.mu.Unlock()
		s.panicAt = 0
	}
	s.seen++
	if s.seen < s.next {
		return nil
	}
	s.next += s.every
	s.faults.Add(1)
	s.lostPkts.Add(uint64(len(b.Pkts)))
	var denied uint64
	for _, p := range b.Pkts {
		if !allowedDst(p.Tuple().DstIP) {
			denied++
		}
	}
	s.lostDenied.Add(denied)
	s.panicAt = int64(time.Since(s.base))
	panic("nfbench: injected fault")
}

// outagesIn returns the durations (ns) of the outages that began inside
// the window.
func (s *chaosState) outagesIn(t1, t2 int64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, o := range s.outages {
		if o.at >= t1 && o.at < t2 {
			out = append(out, float64(o.dur))
		}
	}
	return out
}
