// Verified-extension: the paper's §6 future-work vision ("verified
// kernel extensions") assembled from the three pillars. An untrusted
// packet filter written in minirust is (1) statically verified — an
// exfiltrating variant is rejected at load with the traffic fields
// labeled secret; (2) loaded into a protection domain — a variant with a
// value-dependent crash faults the domain on a poisoned packet without
// taking the pipeline down; and (3) recovered automatically.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/dpdk"
	"repro/internal/extension"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/sfi"
)

const trustedFilter = `
labels public < secret;
// Keep TCP traffic to privileged ports only.
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    if proto == 6 {
        return dport < 1024;
    }
    return false;
}
`

const exfiltratingFilter = `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    println(src, dst, dport);   // ships traffic metadata to the terminal
    return true;
}
`

const crashingFilter = `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    let ratio = dport / sport;  // sport 0 crashes the extension
    return ratio >= 0;
}
`

func main() {
	log.SetFlags(0)

	fmt.Println("== loading the exfiltrating extension ==")
	_, rep, err := extension.Load("spy", exfiltratingFilter)
	if !errors.Is(err, extension.ErrRejected) {
		log.Fatalf("BUG: spy extension not rejected: %v", err)
	}
	fmt.Printf("rejected at %s stage:\n", rep.Stage)
	for _, v := range rep.Violations {
		fmt.Printf("  %s\n", v)
	}

	fmt.Println("\n== loading the trusted extension ==")
	ext, rep, err := extension.Load("web-only", trustedFilter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified: %d functions analyzed, %d summaries reused\n",
		rep.SummaryMisses, rep.SummaryHits)

	// Run it over traffic in its own protection domain.
	crashy, _, err := extension.Load("crashy", crashingFilter)
	if err != nil {
		log.Fatal(err)
	}
	mgr := sfi.NewManager()
	stages := []netbricks.Operator{
		netbricks.Parse{},
		extension.Operator{Ext: ext},
		extension.Operator{Ext: crashy},
	}
	factories := []func() netbricks.Operator{
		nil, nil,
		func() netbricks.Operator {
			fresh, _, err := extension.Load("crashy", crashingFilter)
			if err != nil {
				panic(err)
			}
			return extension.Operator{Ext: fresh}
		},
	}
	pipeline, err := netbricks.NewIsolatedPipeline(mgr, stages, factories)
	if err != nil {
		log.Fatal(err)
	}

	// Traffic: TCP to port 80, mostly sane source ports, one poisoned
	// packet with source port 0 that crashes the second extension.
	spec := dpdk.DefaultSpec()
	spec.Tuple.Proto = packet.ProtoTCP
	spec.Tuple.DstPort = 80
	gen := &poisonGen{base: spec, poisonAt: 7}
	port := dpdk.NewPort(dpdk.Config{PoolSize: 64, QueueGen: func(int) dpdk.Generator { return gen }})

	runner := netbricks.ShardedRunner{
		Port: port, Workers: 1, BatchSize: 4, AutoRecover: true,
		NewIsolated: func(int) (*netbricks.Pipeline, error) { return pipeline, nil },
	}
	stats, err := runner.Run(10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== pipeline run ==\nbatches=%d packets=%d drops=%d faults=%d recovered=%d\n",
		stats.Batches, stats.Packets, stats.Drops, stats.Faults, stats.Recovered)
	fmt.Printf("trusted extension evaluated %d packets, kept %d\n", ext.Evaluated, ext.Kept)
	fmt.Println("\nthe crashing extension faulted its own domain on the poisoned")
	fmt.Println("packet; the pipeline recovered it and kept forwarding — kernel")
	fmt.Println("extension crashes without kernel crashes.")
}

// poisonGen emits the base flow but poisons one packet with sport 0.
type poisonGen struct {
	base     packet.BuildSpec
	count    int
	poisonAt int
}

func (g *poisonGen) NextSpec(spec *packet.BuildSpec) {
	*spec = g.base
	g.count++
	spec.Tuple.SrcPort = uint16(40000 + g.count)
	if g.count == g.poisonAt {
		spec.Tuple.SrcPort = 0
	}
}
