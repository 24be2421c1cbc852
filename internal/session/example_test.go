package session_test

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/session"
)

// Example tracks three flows steered to two backends, checkpoints the
// table, loses it to a cold start and restores it: flow identity and
// backend sharing come back, from bytes that can be restored again.
func Example() {
	flow := func(i int) packet.FiveTuple {
		return packet.FiveTuple{SrcIP: packet.Addr(10, 0, 0, byte(i)), DstIP: packet.Addr(10, 9, 9, 9), SrcPort: 4000, DstPort: 80, Proto: 6}
	}
	beA, beB := packet.Addr(10, 1, 0, 1), packet.Addr(10, 1, 0, 2)

	t := session.NewTable()
	t.Track(flow(1), beA, 64)
	t.Track(flow(2), beA, 64)
	t.Track(flow(3), beB, 64)
	fmt.Println("tracked:", t.Len(), "flows,", t.Backends(), "backends")

	token, _ := t.StreamCheckpoint(nil, nil) // the v1 wire image
	t.Reset()
	fmt.Println("after a cold start:", t.Len(), "flows")

	_ = t.Restore(token)
	ip, ok := t.Entries()[flow(2).Hash()]
	fmt.Println("restored:", t.Len(), "flows,", t.Backends(), "backends; flow 2 ->", ip, ok)
	// Output:
	// tracked: 3 flows, 2 backends
	// after a cold start: 0 flows
	// restored: 3 flows, 2 backends; flow 2 -> 10.1.0.1 true
}
