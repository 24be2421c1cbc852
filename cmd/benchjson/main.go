// Command benchjson converts `go test -bench` output into a
// machine-readable JSON file (benchmark name → metric → value), so a
// micro-benchmark record (`make bench`: BENCH_telemetry.json) can be
// diffed across PRs instead of eyeballing tables.
//
// It reads the benchmark output on stdin, echoes it unchanged (keeping
// the human-readable table in the terminal and in CI logs), and writes
// the parsed results to the -out file:
//
//	go test -run='^$' -bench=Telemetry -benchmem ./internal/telemetry | benchjson -out BENCH_telemetry.json
//
// Every value/unit pair go test prints is captured — ns/op, B/op,
// allocs/op, and custom b.ReportMetric units such as pkts/s.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// gomaxprocsSuffix is the "-8" style suffix go test appends to benchmark
// names; stripping it keeps names stable across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "BENCH_telemetry.json", "output JSON file")
	flag.Parse()

	results := map[string]map[string]float64{}
	pass := false
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if line == "PASS" || strings.HasPrefix(line, "ok ") {
			pass = true
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Name, iteration count, then value/unit pairs.
		if len(f) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		metrics := results[name]
		if metrics == nil {
			metrics = map[string]float64{}
			results[name] = metrics
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			metrics[f[i+1]] = v
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	if !pass {
		log.Fatal("benchmark run did not report PASS; not writing ", *out)
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(results), *out)
}
