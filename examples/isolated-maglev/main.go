// Isolated-maglev: the paper's §3 NetBricks experiment as a runnable
// scenario. A packet pipeline (parse → Maglev load balancer) runs with
// every stage in its own protection domain; batches cross the domain
// boundaries by ownership transfer (zero copies); a fault injected into
// the balancer stage is contained, the domain recovers from clean state,
// and the pipeline keeps forwarding — while the caller observes that the
// moved batch really is inaccessible after the send.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/dpdk"
	"repro/internal/linear"
	"repro/internal/maglev"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/sfi"
)

func main() {
	log.SetFlags(0)

	// Substrate: a simulated port with a skewed flow mix and a Maglev
	// balancer over 4 backends.
	port := dpdk.NewPort(dpdk.Config{
		PoolSize: 256,
		QueueGen: dpdk.NewZipfPartition(dpdk.DefaultSpec(), 512, 1, 1.2, 7),
	})
	backends := []maglev.Backend{
		{Name: "be-0", IP: packet.Addr(10, 1, 0, 1)},
		{Name: "be-1", IP: packet.Addr(10, 1, 0, 2)},
		{Name: "be-2", IP: packet.Addr(10, 1, 0, 3)},
		{Name: "be-3", IP: packet.Addr(10, 1, 0, 4)},
	}
	lb, err := maglev.NewBalancer(backends, 65537)
	if err != nil {
		log.Fatal(err)
	}

	// A flaky stage between parse and maglev: panics on its 5th batch.
	flaky := &netbricks.FaultInjector{PanicOn: 5}
	stages := []netbricks.Operator{netbricks.Parse{}, flaky, maglev.Operator{LB: lb}}
	factories := []func() netbricks.Operator{
		nil,
		func() netbricks.Operator { return &netbricks.FaultInjector{} },
		nil,
	}
	mgr := sfi.NewManager()
	pipeline, err := netbricks.NewIsolatedPipeline(mgr, stages, factories)
	if err != nil {
		log.Fatal(err)
	}

	// Demonstrate the zero-copy move: after handing a batch to the
	// pipeline, the sender's handle is dead.
	pkts := make([]*packet.Packet, 8)
	n := port.RxBurst(pkts)
	batch := linear.New(&netbricks.Batch{Pkts: pkts[:n]})
	stale := batch // sender keeps a copy of the handle, as an attacker would
	out, err := pipeline.Process(batch)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := stale.Borrow(); errors.Is(err, linear.ErrMoved) {
		fmt.Println("zero-copy send: sender's handle is dead after the move (ErrMoved)")
	} else {
		log.Fatal("BUG: sender retained access to the batch")
	}
	final, err := out.Into()
	if err != nil {
		log.Fatal(err)
	}
	port.TxBurst(final.Pkts)

	// Now run batches through until the injected fault fires, with
	// automatic recovery.
	runner := netbricks.ShardedRunner{
		Port: port, Workers: 1, BatchSize: 8, AutoRecover: true,
		NewIsolated: func(int) (*netbricks.Pipeline, error) { return pipeline, nil },
	}
	stats, err := runner.Run(20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("processed %d batches (%d packets)\n", stats.Batches, stats.Packets)
	fmt.Printf("faults contained: %d, recoveries: %d — the pipeline survived its crashing stage\n",
		stats.Faults, stats.Recovered)

	for _, d := range pipeline.Domains() {
		calls, faults, recoveries, _, _ := d.Stats.Snapshot()
		fmt.Printf("  domain %-22s calls=%-3d faults=%d recoveries=%d\n",
			d.Name(), calls, faults, recoveries)
	}
	hits, misses := lb.Stats()
	fmt.Printf("maglev: %d flows tracked (%d hits, %d misses)\n", lb.ConnCount(), hits, misses)
}
