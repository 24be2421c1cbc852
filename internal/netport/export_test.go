package netport

import "repro/internal/packet"

// drops returns the sum of the per-cause drop counters.
func (s *Stats) drops() uint64 {
	return s.RingFull.Load() + s.ParseError.Load() + s.PoolEmpty.Load()
}

// rssQueue reports which receive queue the software RETA steers a flow
// to (the distributor path; kernel REUSEPORT fan-out hashes the outer
// flow instead).
func (p *Port) rssQueue(t packet.FiveTuple) int { return p.reta.Queue(p.rss.HashTuple(t)) }
