package dpdk

import "repro/internal/packet"

// rssQueue reports which receive queue the port steers a flow to.
func (p *Port) rssQueue(t packet.FiveTuple) int { return p.reta.Queue(p.rss.HashTuple(t)) }
