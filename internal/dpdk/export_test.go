package dpdk

import "repro/internal/packet"

// rssQueue reports which receive queue RSS steers a flow to on p: the
// redirection table partition builds for p's queue count.
func (p *Port) rssQueue(t packet.FiveTuple) int {
	return packet.NewRETA(p.Queues(), 0).Queue(t.RSSHash(packet.DefaultRSSKey))
}
