package main

// sock-rate's load generator and sink: one separate process, so the NF
// child's CPU and memory readings hold only the NF. One sender goroutine
// offers an open loop at a fixed rate, timing every packet from the moment
// it was due to be sent; one sink goroutine reads the NF's egress.
//
// Wire format: each UDP datagram is one 64-byte Ethernet frame (the
// overlay netport speaks), whose 22-byte UDP payload carries the
// sequence number, the scheduled send time and the flow index.
//
// The kernel spreads a REUSEPORT group's traffic by a keyed hash of the
// outer source port, so which NF queue a source socket feeds changes from
// run to run, and 16 sockets can split 14:2. Before the schedule starts,
// the generator therefore probes a larger set of sockets with one packet
// each (of flows used for nothing else), reads from the echoed packet
// which queue carried it, and keeps 8 sockets per queue.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/packet"
)

const (
	genSockets    = 16 // source sockets: REUSEPORT source-port entropy, not concurrency
	genCandidates = 64 // sockets probed to find genSockets that split evenly over the NF's queues
	genTick       = 100 * time.Microsecond
	genGrace      = 300 * time.Millisecond // the sink outlives the sender by this
	payloadOff    = frameLen - payloadLen
	// queueOff is the payload byte where the harness port wrapper in the
	// NF child notes the queue a packet left through (queue+1; 0 = none).
	queueOff = payloadOff + 20
)

// genResult is what the generator process reports.
type genResult struct {
	Sent          uint64  `json:"sent"`           // datagrams handed to the kernel, whole run
	SentDenied    uint64  `json:"sent_denied"`    // of those, to flows the firewall denies
	SendErrors    uint64  `json:"send_errors"`    // sends the kernel refused (not offered)
	Received      uint64  `json:"received"`       // datagrams the sink read, whole run
	WindowSent    uint64  `json:"window_sent"`    // allowed packets scheduled inside the window
	WindowLost    uint64  `json:"window_lost"`    // of those, never seen by the sink
	OfferedPPS    float64 `json:"offered_pps"`    // all packets scheduled inside the window, per second
	LatP50us      float64 `json:"lat_p50_us"`     // from scheduled send time; lost packets count as +inf
	LatP99us      float64 `json:"lat_p99_us"`     //
	LatSamples    int     `json:"lat_samples"`    //
	LateP99ms     float64 `json:"late_ms_p99"`    // how late the sender ran against its schedule
	Unpinned      uint64  `json:"unpinned"`       // packets of a flow seen at a second backend
	DeniedAtSink  uint64  `json:"denied_at_sink"` // packets of a denied flow that got through
	Malformed     uint64  `json:"malformed"`      //
	FlowsAtSink   int     `json:"flows_at_sink"`  //
	BackendsSeen  int     `json:"backends_seen"`  //
	SenderSeconds float64 `json:"sender_seconds"` //
}

// latInf stands in for +inf (JSON has none): a lost packet's latency.
const latInf = 1e12

func runGen(cfg runConfig) error {
	wl := cfg.workload()
	fs := newFlowSet(cfg.Seed, wl.Flows)

	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer sinkConn.Close()
	_ = sinkConn.SetReadBuffer(4 << 20) // best effort; the kernel clamps it
	fmt.Printf("SINK %s\n", sinkConn.LocalAddr())

	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil {
		return fmt.Errorf("waiting for TARGET: %w", err)
	}
	target, err := net.ResolveUDPAddr("udp", strings.TrimSpace(strings.TrimPrefix(line, "TARGET ")))
	if err != nil {
		return err
	}
	cands := make([]*net.UDPConn, genCandidates)
	for i := range cands {
		if cands[i], err = net.DialUDP("udp", nil, target); err != nil {
			return err
		}
		defer cands[i].Close()
	}

	// One prebuilt frame per flow; the sender stamps the payload in place.
	frames := make([][]byte, fs.Resident)
	for i := range frames {
		if frames[i], err = packet.Build(nil, fs.spec(i)); err != nil {
			return err
		}
	}
	order := rand.New(rand.NewSource(cfg.Seed ^ 0x9e3779b9)).Perm(fs.Resident)

	total := cfg.Warmup + cfg.Seconds
	rate := float64(wl.RatePPS)
	burstCap := uint64(max(64, wl.RatePPS/400))  // 2.5 ms of schedule
	winLo := uint64(cfg.Warmup.Seconds() * rate) // first sequence number inside the window
	winHi := uint64(total.Seconds() * rate)
	lat := make([]int64, winHi-winLo) // ns; 0 = not seen (or a denied flow)
	expect := make([]bool, winHi-winLo)
	late := make([]float64, 0, winHi-winLo)

	var res genResult
	base := time.Now()
	sinkDone := make(chan struct{})
	backendOf := make([]packet.IPv4, fs.Resident)
	var probed [genCandidates]atomic.Int32 // queue+1 each candidate socket feeds
	go func() {
		defer close(sinkDone)
		buf := make([]byte, 2048)
		backends := map[packet.IPv4]bool{}
		for {
			n, _, err := sinkConn.ReadFromUDP(buf)
			if err != nil {
				res.BackendsSeen = len(backends)
				return // closed: the run is over
			}
			now := int64(time.Since(base))
			res.Received++
			if n != frameLen {
				res.Malformed++
				continue
			}
			seq := binary.LittleEndian.Uint64(buf[payloadOff:])
			sched := int64(binary.LittleEndian.Uint64(buf[payloadOff+8:]))
			flow := int(binary.LittleEndian.Uint32(buf[payloadOff+16:]))
			if c := probeCandidate(fs, flow); c >= 0 && c < genCandidates {
				probed[c].Store(int32(buf[queueOff]))
				continue
			}
			if flow >= fs.Resident {
				res.Malformed++
				continue
			}
			if fs.denied(flow) {
				res.DeniedAtSink++
			}
			backend := packet.IPv4(binary.BigEndian.Uint32(buf[packet.EthHeaderLen+16:]))
			switch backendOf[flow] {
			case 0:
				backendOf[flow] = backend
				backends[backend] = true
				res.FlowsAtSink++
			case backend:
			default:
				res.Unpinned++
			}
			if seq >= winLo && seq < winHi {
				lat[seq-winLo] = max(now-sched, 1)
			}
		}
	}()

	// Probe: which queue does each candidate socket feed?
	for try := 0; try < 20; try++ {
		missing := 0
		for c, conn := range cands {
			if probed[c].Load() != 0 {
				continue
			}
			missing++
			f, err := packet.Build(nil, fs.spec(probeFlow(fs, c)))
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(f[payloadOff+16:], uint32(probeFlow(fs, c)))
			if _, err := conn.Write(f); err != nil {
				res.SendErrors++
				continue
			}
			res.Sent++
		}
		if missing == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Keep genSockets of them, alternating queues so that flow f, sent on
	// socks[f%genSockets], spreads the flows evenly too.
	var byQueue [numWorkers][]*net.UDPConn
	for c, conn := range cands {
		if q := int(probed[c].Load()) - 1; q >= 0 && q < numWorkers {
			byQueue[q] = append(byQueue[q], conn)
		}
	}
	var socks []*net.UDPConn
	for i := 0; len(socks) < genSockets; i++ {
		q := byQueue[i%numWorkers]
		if i/numWorkers >= len(q) {
			return fmt.Errorf("probing found only %d and %d sockets for the NF's two queues; want %d each",
				len(byQueue[0]), len(byQueue[1]), genSockets/numWorkers)
		}
		socks = append(socks, q[i/numWorkers])
	}

	// The sender: every tick, send what the schedule says is due.
	origin := time.Since(base)
	var seq uint64
	for {
		now := time.Since(base) - origin
		if now >= total {
			break
		}
		// After a stall (the sandbox's timers tick at about 1 ms, and a
		// descheduled sender can lose tens of ms) the backlog is sent at
		// up to burstCap per tick, not all at once: one burst the size
		// of the NF's ingress ring would measure the ring, not the NF.
		// Each packet still carries its scheduled time.
		due := min(uint64(now.Seconds()*rate), seq+burstCap)
		for ; seq < due; seq++ {
			flow := order[seq%uint64(len(order))]
			f := frames[flow]
			sched := int64(origin) + int64(float64(seq)/rate*1e9)
			binary.LittleEndian.PutUint64(f[payloadOff:], seq)
			binary.LittleEndian.PutUint64(f[payloadOff+8:], uint64(sched))
			binary.LittleEndian.PutUint32(f[payloadOff+16:], uint32(flow))
			if _, err := socks[flow%genSockets].Write(f); err != nil {
				res.SendErrors++
				continue
			}
			res.Sent++
			if fs.denied(flow) {
				res.SentDenied++
			}
			if seq >= winLo && seq < winHi {
				late = append(late, float64(int64(time.Since(base))-sched))
				expect[seq-winLo] = !fs.denied(flow)
			}
		}
		time.Sleep(genTick)
	}
	res.SenderSeconds = (time.Since(base) - origin).Seconds()
	time.Sleep(genGrace)
	sinkConn.Close()
	<-sinkDone

	lats := make([]float64, 0, len(lat))
	for i, ok := range expect {
		if !ok {
			continue
		}
		res.WindowSent++
		if lat[i] == 0 {
			res.WindowLost++
			lats = append(lats, latInf)
		} else {
			lats = append(lats, float64(lat[i])/1e3)
		}
	}
	sort.Float64s(lats)
	sort.Float64s(late)
	res.LatSamples = len(lats)
	res.LatP50us = percentile(lats, 0.5)
	res.LatP99us = percentile(lats, 0.99)
	res.LateP99ms = percentile(late, 0.99) / 1e6
	res.OfferedPPS = ratio(float64(len(late)), cfg.Seconds.Seconds())
	return printResult(res)
}

// probeFlow is the flow candidate socket c is probed with: an allowed
// flow past the resident set, so no measured flow ever shares its state.
func probeFlow(fs flowSet, c int) int { return (fs.Resident/16 + 1 + c) * 16 }

// probeCandidate inverts probeFlow; negative when flow is not a probe's.
func probeCandidate(fs flowSet, flow int) int {
	if flow%16 != 0 {
		return -1
	}
	return flow/16 - fs.Resident/16 - 1
}
