package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dpdk"
	"repro/internal/netbricks"
	"repro/internal/netport"
)

// heldStage holds the first batch that reaches it until release closes:
// a stage stuck in a loop, as far as its worker can tell.
type heldStage struct {
	netbricks.Operator
	armed    *atomic.Bool
	entered  chan<- struct{}
	release  <-chan struct{}
	returned chan<- struct{}
}

func (h *heldStage) ProcessBatch(b *netbricks.Batch) error {
	if !h.armed.CompareAndSwap(true, false) {
		return h.Operator.ProcessBatch(b)
	}
	close(h.entered)
	<-h.release
	defer close(h.returned)
	return h.Operator.ProcessBatch(b)
}

// freeAddr returns a loopback address on network that nothing listens
// on right now.
func freeAddr(t *testing.T, network string) string {
	t.Helper()
	var addr net.Addr
	if network == "udp" {
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr = c.LocalAddr()
		c.Close()
	} else {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr = l.Addr()
		l.Close()
	}
	return addr.String()
}

// patience is how long a test waits for an event: a hang verdict comes
// up to hangAfter plus one poll after the stage sticks, with margin.
const patience = hangAfter + 15*time.Second

// scrape reads every series /metrics on addr serves, by its name and
// labels as printed; nil when the server does not answer yet.
func scrape(addr string) map[string]float64 {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m
}

// waitMetrics scrapes addr until cond holds and returns that scrape, or
// fails the test after patience, showing the domain and worker counters.
func waitMetrics(t *testing.T, addr, what string, cond func(map[string]float64) bool) map[string]float64 {
	t.Helper()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(patience)
	for {
		m := scrape(addr)
		if m != nil && cond(m) {
			return m
		}
		select {
		case <-tick.C:
		case <-deadline:
			var shown []string
			for k, v := range m {
				if strings.HasPrefix(k, "domain_") || strings.HasPrefix(k, "worker_packets_total") {
					shown = append(shown, fmt.Sprintf("%s %v", k, v))
				}
			}
			sort.Strings(shown)
			t.Fatalf("waited %v for %s; /metrics has\n%s", patience, what, strings.Join(shown, "\n"))
		}
	}
}

// TestE2EHungStageIsAbandoned: nf-pipeline runs with hang detection on.
// Over loopback traffic, worker 0's firewall stage is held inside one
// batch. The supervisor's hang verdict abandons that serve and restarts
// the worker (domain_hangs_total and domain_restarts_total on /metrics),
// the restarted worker 0 and worker 1 keep delivering while the stage is
// still held, and once it is let go the abandoned serve settles its
// batch, so every mbuf is back in the pool when the run ends. The run
// forwards to a UDP sink (-egress), so the abandoned serve's transmit
// shares worker 0's queue with its successor's; under -race this is the
// check that two transmits on one queue do not race.
func TestE2EHungStageIsAbandoned(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e loopback tier skipped in -short")
	}
	var armed atomic.Bool
	armed.Store(true)
	entered, release, returned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	stageHook = func(w int, op netbricks.Operator) netbricks.Operator {
		if w != 0 {
			return op
		}
		return &heldStage{Operator: op, armed: &armed, entered: entered, release: release, returned: returned}
	}
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sunk atomic.Int64
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, _, err := sink.ReadFrom(buf); err != nil {
				return
			}
			sunk.Add(1)
		}
	}()
	t.Cleanup(func() { sink.Close() })
	o := options{workers: 2, batches: 1 << 30, listen: freeAddr(t, "udp"), egress: sink.LocalAddr().String(), metricsAddr: freeAddr(t, "tcp")}
	var out strings.Builder
	var runErr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		runErr = run(o, &out)
	}()
	stop := make(chan struct{})
	letGo, stopTraffic := sync.OnceFunc(func() { close(release) }), sync.OnceFunc(func() { close(stop) })
	// Cleanups run last first: a failed check lets the stage go and stops
	// the traffic, so the run ends before the hook is taken away.
	t.Cleanup(func() { stageHook = nil })
	t.Cleanup(func() {
		select {
		case <-ran:
		case <-time.After(30 * time.Second):
			t.Error("the run did not end 30s after the traffic stopped")
		}
	})
	t.Cleanup(stopTraffic)
	t.Cleanup(letGo)

	// The port is open once its series are registered; a connected UDP
	// sender would see "connection refused" before that.
	waitMetrics(t, o.metricsAddr, "the port", func(m map[string]float64) bool {
		_, ok := m[`port_rx_datagrams_total{port="net0"}`]
		return ok
	})
	genDone := make(chan error, 1)
	gen := &netport.Pktgen{Target: o.listen, Base: dpdk.DefaultSpec(), Flows: 256, Sockets: 16, PPS: 20000}
	go func() {
		_, err := gen.Run(stop)
		genDone <- err
	}()

	select {
	case <-entered:
	case <-time.After(15 * time.Second):
		t.Fatal("no batch reached worker 0's firewall stage in 15s")
	}
	m := waitMetrics(t, o.metricsAddr, "worker 0's hang verdict and restart", func(m map[string]float64) bool {
		return m[`domain_hangs_total{domain="worker-0"}`] >= 1 && m[`domain_restarts_total{domain="worker-0"}`] >= 1
	})
	w0, w1 := m[`worker_packets_total{worker="0"}`], m[`worker_packets_total{worker="1"}`]
	waitMetrics(t, o.metricsAddr, "both workers to deliver while the stage is held", func(m map[string]float64) bool {
		return m[`worker_packets_total{worker="0"}`] > w0 && m[`worker_packets_total{worker="1"}`] > w1
	})
	select {
	case <-returned:
		t.Fatal("the held stage returned before it was released")
	default:
	}

	letGo()
	<-returned
	// Keep the traffic on until the restarted worker 0 has transmitted
	// again, so its sends run beside the abandoned serve's.
	w0 = scrape(o.metricsAddr)[`worker_packets_total{worker="0"}`]
	waitMetrics(t, o.metricsAddr, "worker 0 to deliver after the stage was let go", func(m map[string]float64) bool {
		return m[`worker_packets_total{worker="0"}`] > w0
	})
	stopTraffic()
	if err := <-genDone; err != nil {
		t.Fatalf("pktgen: %v", err)
	}
	select {
	case <-ran:
		if runErr != nil {
			t.Fatalf("run: %v\n%s", runErr, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the run did not end 30s after the traffic stopped")
	}
	m = scrape(o.metricsAddr)
	if avail, capacity := m[`pool_available{port="net0"}`], m[`pool_capacity{port="net0"}`]; capacity == 0 || avail != capacity {
		t.Fatalf("%v of %v mbufs back in the pool after the run\n%s", avail, capacity, out.String())
	}
	if sunk.Load() == 0 {
		t.Fatal("no frame reached the egress sink")
	}
	var restarts, errs, crashes, hangs int
	line := summaryLine(t, out.String(), "supervisor:")
	if _, err := fmt.Sscanf(line, "supervisor: %d restarts (%d errors, %d crashes, %d hangs)", &restarts, &errs, &crashes, &hangs); err != nil || hangs != 1 || restarts < 1 {
		t.Fatalf("%s: want one hang and its restart (%v)", line, err)
	}
}
