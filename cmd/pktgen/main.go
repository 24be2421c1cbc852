// Command pktgen drives a listening nf-pipeline (or any netport) with
// paced synthetic overlay traffic — one UDP datagram per Ethernet frame —
// and reports the rate it offered.
//
// Usage:
//
//	nf-pipeline -listen 127.0.0.1:9000 -workers 4 &
//	pktgen -target 127.0.0.1:9000 -pps 100000 -duration 10s
//	pktgen -target 127.0.0.1:9000 -pps 60000 -count 30000 -flows 128
//
// -sockets spreads the flows over source sockets, which is what lets the
// listener's SO_REUSEPORT group fan them out across workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/dpdk"
	"repro/internal/netport"
)

// parseArgs turns a command line into the generator it describes and how
// long to send when no -count bounds the run. Flag-syntax errors and
// -help print the usage to usage.
func parseArgs(args []string, usage io.Writer) (*netport.Pktgen, time.Duration, error) {
	fs := flag.NewFlagSet("pktgen", flag.ContinueOnError)
	fs.SetOutput(usage)
	var (
		target   = fs.String("target", "", "send to this UDP address (required)")
		pps      = fs.Int("pps", 100000, "offered load in packets per second (0 = unpaced)")
		count    = fs.Int("count", 0, "datagrams to send (0 = send for -duration)")
		duration = fs.Duration("duration", 10*time.Second, "how long to send when -count is 0")
		flows    = fs.Int("flows", 4096, "distinct synthetic flows, cycled round-robin")
		sockets  = fs.Int("sockets", 16, "source sockets to spread flows over (REUSEPORT receivers need the source-port entropy)")
		batch    = fs.Int("batch", 32, "datagrams per batched send")
	)
	if err := fs.Parse(args); err != nil {
		return nil, 0, err
	}
	switch {
	case fs.NArg() > 0:
		return nil, 0, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *target == "":
		return nil, 0, errors.New("-target is required")
	case *pps < 0 || *count < 0:
		return nil, 0, errors.New("-pps and -count must be >= 0")
	case *count == 0 && *duration <= 0:
		return nil, 0, errors.New("-duration must be > 0 when -count is 0")
	case *flows < 1 || *sockets < 1 || *batch < 1:
		return nil, 0, errors.New("-flows, -sockets and -batch must be >= 1")
	}
	return &netport.Pktgen{
		Target:  *target,
		Base:    dpdk.DefaultSpec(),
		Flows:   *flows,
		PPS:     *pps,
		Count:   *count,
		Sockets: *sockets,
		Batch:   *batch,
	}, *duration, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pktgen: ")
	gen, duration, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Printf("%v (see -help)", err)
		os.Exit(2)
	}
	var stop chan struct{}
	if gen.Count == 0 {
		stop = make(chan struct{})
		time.AfterFunc(duration, func() { close(stop) })
		log.Printf("%s for %s at %d pps (%d flows over %d sockets)", gen.Target, duration, gen.PPS, gen.Flows, gen.Sockets)
	} else {
		log.Printf("%s, %d datagrams at %d pps (%d flows over %d sockets)", gen.Target, gen.Count, gen.PPS, gen.Flows, gen.Sockets)
	}
	start := time.Now()
	sent, err := gen.Run(stop)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("pktgen:     sent=%d in %s (%.0f pps offered)\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
}
