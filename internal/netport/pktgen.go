// Pktgen: the load generator for the socket port. It speaks the same
// overlay wire format the port receives — one UDP datagram per Ethernet
// frame — so the pktgen command can drive `nf-pipeline -listen` over
// loopback, and the end-to-end tests can offer precisely paced load.
package netport

import (
	"fmt"
	"net"
	"time"

	"repro/internal/packet"
)

// Pktgen sends synthetic frames to a UDP target. Flows are derived from
// Base by the same SrcIP/SrcPort walk dpdk.NewRSSPartition performs, so
// the receiving port's RSS steering spreads them across queues the way
// the simulated multi-queue port's traffic spreads.
type Pktgen struct {
	// Target is the UDP address to send to.
	Target string
	// Base is the frame template; flow i adds i to SrcIP and i%50000 to
	// SrcPort.
	Base packet.BuildSpec
	// Flows is the number of distinct flows cycled round-robin
	// (default 1).
	Flows int
	// PPS paces the offered load in packets per second (0 = unpaced:
	// send as fast as the socket accepts).
	PPS int
	// Count is the total number of datagrams to send (0 = run until
	// stop closes).
	Count int
	// Sockets spreads the load over this many source sockets (default
	// 1, clamped to Flows), flow f always sending through socket
	// f%Sockets so per-flow ordering holds. A REUSEPORT receive group
	// hashes the *outer* tuple, so a single-socket generator lands every
	// datagram on one worker; per-flow source sockets give the kernel
	// the entropy to fan out — the overlay analogue of a VXLAN
	// encapsulator deriving its outer source port from the inner flow
	// hash.
	Sockets int
}

// pktgenBurst is how many datagrams one batched send moves. Pacing and
// stop checks happen at burst boundaries, so a stopped generator emits
// at most the burst already in flight, and a 100k pps run corrects drift
// every ~640µs — often enough that time.Now and time.Sleep stay off the
// per-packet path.
const pktgenBurst = 64

// stopped reports whether stop has closed; a nil stop never stops.
func stopped(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// sleepLead sleeps off a positive schedule lead, returning false when
// stop closes during the wait — pacing sleeps never delay a stop.
func sleepLead(lead time.Duration, stop <-chan struct{}) bool {
	if lead <= 0 {
		return true
	}
	if stop == nil {
		time.Sleep(lead)
		return true
	}
	t := time.NewTimer(lead)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// Run sends the configured load and returns the number of datagrams
// handed to the kernel. It stops early — without error — when stop
// closes. Frames are prebuilt, one per flow, and sends go through the
// batched conn — one sendmmsg per socket per burst on Linux — so the
// syscall cost is paid per burst, not per datagram.
func (g *Pktgen) Run(stop <-chan struct{}) (sent int, err error) {
	if g.Count == 0 && stop == nil {
		return 0, fmt.Errorf("netport: pktgen needs a Count or a stop channel")
	}
	addr, err := net.ResolveUDPAddr("udp", g.Target)
	if err != nil {
		return 0, fmt.Errorf("netport: pktgen target: %w", err)
	}

	flows := max(g.Flows, 1)
	sockets := max(g.Sockets, 1)
	if sockets > flows {
		sockets = flows
	}
	conns := make([]*net.UDPConn, sockets)
	bcs := make([]batchConn, sockets)
	for s := range conns {
		conns[s], err = net.DialUDP("udp", nil, addr)
		if err == nil {
			bcs[s], err = newBatchConn(conns[s])
		}
		if err != nil {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
			return 0, fmt.Errorf("netport: pktgen: %w", err)
		}
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	frames := make([][]byte, flows)
	for i := 0; i < flows; i++ {
		spec := g.Base
		spec.Tuple.SrcIP += packet.IPv4(i)
		spec.Tuple.SrcPort += uint16(i % 50000)
		frame, err := packet.Build(nil, spec)
		if err != nil {
			return 0, fmt.Errorf("netport: pktgen spec: %w", err)
		}
		frames[i] = frame
	}

	// Per-socket payload staging for one burst; flow f's frames always
	// queue on socket f%sockets.
	perSock := make([][][]byte, sockets)
	for s := range perSock {
		perSock[s] = make([][]byte, 0, pktgenBurst)
	}

	start := time.Now()
	for i := 0; g.Count == 0 || i < g.Count; {
		if stopped(stop) {
			return sent, nil
		}
		n := pktgenBurst
		if g.Count > 0 {
			n = min(n, g.Count-i)
		}
		for j := 0; j < n; j++ {
			f := (i + j) % flows
			perSock[f%sockets] = append(perSock[f%sockets], frames[f])
		}
		for s, payloads := range perSock {
			for off := 0; off < len(payloads); {
				k, werr := bcs[s].WriteBatch(payloads[off:], nil)
				if werr != nil {
					return sent, fmt.Errorf("netport: pktgen send: %w", werr)
				}
				if k == 0 {
					return sent, fmt.Errorf("netport: pktgen send: short batch write")
				}
				sent += k
				off += k
			}
			perSock[s] = perSock[s][:0]
		}
		i += n
		if g.PPS > 0 {
			// Sleep off any lead over the ideal schedule. Correcting at
			// burst boundaries (and once more for the final partial
			// burst, via sent == i here) keeps a Count/PPS run at
			// ≈ Count/PPS seconds without per-packet clock reads.
			ideal := time.Duration(i) * time.Second / time.Duration(g.PPS)
			if !sleepLead(ideal-time.Since(start), stop) {
				return sent, nil
			}
		}
	}
	return sent, nil
}
