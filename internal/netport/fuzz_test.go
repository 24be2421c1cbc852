package netport

import (
	"testing"
	"time"

	"repro/internal/packet"
)

// wouldDeliver is the independent oracle for the fuzz harness: whether a
// datagram of these bytes should reach a ring. It re-derives the answer
// from packet.Parse on a fresh buffer, so the port's own path is never
// trusted to grade itself.
func wouldDeliver(data []byte) bool {
	if len(data) >= MbufSize {
		return false // kernel-truncated reads are rejected
	}
	pkt := &packet.Packet{Data: append(make([]byte, 0, len(data)), data...)}
	return pkt.Parse() == nil
}

// FuzzNetportDecode fuzzes the batched socket-read → packet.Parse →
// mbuf-init ingress path. Each fuzz input rides mid-burst between two
// valid frames — through the same stage/dispatch code the receive loop
// runs — so a malformed datagram must shed without poisoning the batch
// around it. The invariants are the ones the wire demands of a port that
// cannot trust its peers:
//
//   - no input panics the dispatch path;
//   - every datagram in the burst is accounted exactly once — delivered
//     to a ring or counted under exactly one drop cause;
//   - delivery matches an independent parse of each datagram: the valid
//     neighbors of a malformed datagram survive, the malformed one
//     sheds parse_error;
//   - a shed datagram is freed, never leaked: after draining the rings
//     the pool balances to capacity;
//   - whatever is delivered parsed cleanly and sits on the queue its
//     RSS hash selects.
//
// The seed corpus covers the adversarial classes: truncated frames,
// oversized (>= MbufSize) datagrams the kernel would truncate, boundary
// sizes either side of MbufSize and of the small room, and
// non-UDP/non-IPv4 frames.
func FuzzNetportDecode(f *testing.F) {
	valid, err := packet.Build(nil, testSpec())
	if err != nil {
		f.Fatal(err)
	}
	tcpSpec := testSpec()
	tcpSpec.Tuple.Proto = packet.ProtoTCP
	tcp, err := packet.Build(nil, tcpSpec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(tcp)
	f.Add(valid[:10])                    // truncated mid-Ethernet
	f.Add(valid[:packet.EthHeaderLen+4]) // truncated mid-IPv4
	oversize := make([]byte, MbufSize+64)
	copy(oversize, valid)
	f.Add(oversize) // oversized: arrives truncated to MbufSize
	exact := make([]byte, MbufSize)
	copy(exact, valid)
	f.Add(exact) // exactly MbufSize: indistinguishable from truncation
	under := make([]byte, MbufSize-1)
	copy(under, valid)
	f.Add(under) // one under the boundary: largest acceptable read
	ospf := append([]byte(nil), valid...)
	ospf[packet.EthHeaderLen+9] = 89
	f.Add(ospf) // non-UDP/TCP transport
	arp := append([]byte(nil), valid...)
	arp[12], arp[13] = 0x08, 0x06
	f.Add(arp) // non-IPv4 ethertype
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	for _, size := range []int{smallRoom - 1, smallRoom, smallRoom + 1} {
		f.Add(sizedFrame(f, size, 0)) // either side of the small room's edge
	}

	neighborA, neighborB := flowFrame(f, 1), flowFrame(f, 2)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Nanosecond PollWait: empty-queue polls must not stall the fuzzer.
		p, err := newPort(Config{Queues: 4, RingSize: 16, PoolSize: 64,
			CacheSize: 4, BatchSize: 8, PollWait: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		// The fuzz input mid-batch between two known-valid frames, run
		// through the genuine batched dispatch.
		burst := [][]byte{neighborA, data, neighborB}
		p.injectBatch(burst)

		if got := p.Stats.RxDatagrams.Load(); got != uint64(len(burst)) {
			t.Fatalf("rx_datagrams=%d after a %d-datagram burst", got, len(burst))
		}
		want := uint64(0)
		for _, d := range burst {
			if wouldDeliver(d) {
				want++
			}
		}
		delivered := p.Stats.RxPackets.Load()
		if delivered+p.Stats.drops() != uint64(len(burst)) {
			t.Fatalf("burst accounted %d times (delivered=%d ring_full=%d parse_error=%d pool_empty=%d)",
				delivered+p.Stats.drops(), delivered,
				p.Stats.RingFull.Load(), p.Stats.ParseError.Load(), p.Stats.PoolEmpty.Load())
		}
		// Rings (4x16) and pool (64) dwarf the burst, so delivery must
		// match the oracle exactly: the neighbors always survive, and a
		// malformed mid-batch datagram sheds as parse_error alone.
		if delivered != want {
			t.Fatalf("delivered %d of a burst whose datagrams parse to %d (parse_error=%d)",
				delivered, want, p.Stats.ParseError.Load())
		}
		if shed := p.Stats.ParseError.Load(); shed != uint64(len(burst))-want {
			t.Fatalf("parse_error=%d, want %d", shed, uint64(len(burst))-want)
		}

		// Whatever was delivered must be a cleanly parsed frame on the
		// queue its hash selects; drain and free it.
		buf := make([]*packet.Packet, 8)
		var drained uint64
		for q := 0; q < p.Queues(); q++ {
			n := p.RxBurstQueue(q, buf)
			for _, pkt := range buf[:n] {
				if !pkt.Parsed() {
					t.Fatal("unparsed packet delivered")
				}
				checkRoom(t, pkt)
				if want := p.rssQueue(pkt.Tuple()); want != q {
					t.Fatalf("flow %s delivered to queue %d, RSS says %d", pkt.Tuple(), q, want)
				}
			}
			p.FreeQueue(q, buf[:n])
			drained += uint64(n)
		}
		if drained != delivered {
			t.Fatalf("drained %d, delivered counter says %d", drained, delivered)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if got := p.PoolAvailable(); got != p.PoolCapacity() {
			t.Fatalf("pool: %d of %d mbufs after close — a datagram leaked", got, p.PoolCapacity())
		}
	})
}
