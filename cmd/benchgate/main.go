// Command benchgate fails a build when a benchmark metric regresses
// past a bound: it turns one number of a `go test -bench` run into a
// hard gate —
//
//	go test -run='^$' -bench='NetportLoopback$' ./internal/netport \
//	    | benchgate -bench BenchmarkNetportLoopback -metric pps -min 320000
//
// reads `go test -bench` output on stdin (echoed unchanged, keeping the
// human-readable table in the terminal and in CI logs) and exits nonzero
// if the named benchmark's metric is missing or out of bounds. Three
// gate shapes compose:
//
//   - -min: an absolute floor (throughput must not regress). Floors are
//     set ~20% under the recorded number so scheduler noise does not
//     flap the gate but a real regression trips it.
//   - -max: an absolute ceiling (allocs/op must stay 0; overheads must
//     not grow). -max 0 with -metric allocs/op is the zero-allocation
//     gate.
//   - -baseline B -min-frac F: a relative floor against another
//     benchmark from the same input — the gated bench's metric must be
//     at least F times B's. This is how the traced loopback proves it
//     sustains >= 98% of the untraced run's pps.
//
// -out FILE also writes every benchmark's metrics (name → unit → value,
// every value/unit pair go test prints) to FILE as indented JSON, so a
// micro-benchmark record (`make bench`: BENCH_telemetry.json) can be
// diffed across commits; with -out, -bench is optional:
//
//	go test -run='^$' -bench=Telemetry -benchmem ./internal/telemetry | benchgate -out BENCH_telemetry.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
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
	log.SetPrefix("benchgate: ")
	bench := flag.String("bench", "", "benchmark name to gate (required without -out)")
	metric := flag.String("metric", "pps", "metric unit to compare")
	min := flag.Float64("min", math.Inf(-1), "floor: fail if the metric is below this")
	max := flag.Float64("max", math.Inf(1), "ceiling: fail if the metric is above this")
	baseline := flag.String("baseline", "", "benchmark to compare against (relative gate)")
	minFrac := flag.Float64("min-frac", 0, "relative floor: fail if metric < min-frac * baseline's metric")
	out := flag.String("out", "", "also write every benchmark's metrics to this JSON file")
	flag.Parse()
	if *bench == "" && *out == "" {
		log.Fatal("-bench is required without -out")
	}
	if (*baseline == "") != (*minFrac == 0) {
		log.Fatal("-baseline and -min-frac must be used together")
	}

	results := fromStdin()
	if *out != "" {
		writeJSON(*out, results)
	}
	if *bench == "" {
		return
	}
	value, found := results[*bench][*metric]
	if !found {
		log.Fatalf("benchmark %s has no %q metric", *bench, *metric)
	}
	if value < *min {
		log.Fatalf("REGRESSION: %s %s = %.0f, below the floor %.0f", *bench, *metric, value, *min)
	}
	if value > *max {
		log.Fatalf("REGRESSION: %s %s = %g, above the ceiling %g", *bench, *metric, value, *max)
	}
	if *baseline != "" {
		base, ok := results[*baseline][*metric]
		if !ok {
			log.Fatalf("baseline benchmark %s has no %q metric", *baseline, *metric)
		}
		if floor := *minFrac * base; value < floor {
			log.Fatalf("REGRESSION: %s %s = %.0f, below %.0f%% of %s's %.0f (floor %.0f)",
				*bench, *metric, value, *minFrac*100, *baseline, base, floor)
		}
		log.Printf("ok: %s %s = %.0f >= %.0f%% of %s's %.0f",
			*bench, *metric, value, *minFrac*100, *baseline, base)
		return
	}
	switch {
	case !math.IsInf(*max, 1):
		log.Printf("ok: %s %s = %g (ceiling %g)", *bench, *metric, value, *max)
	default:
		log.Printf("ok: %s %s = %.0f (floor %.0f)", *bench, *metric, value, *min)
	}
}

// fromStdin scans `go test -bench` output, echoing it unchanged, and
// collects every benchmark's metrics (so relative gates can compare two
// benches from one run). A run that never prints PASS (build failure,
// bench panic) fails the gate regardless of the metrics.
func fromStdin() map[string]map[string]float64 {
	results := map[string]map[string]float64{}
	var pass bool
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
		if len(f) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		m := results[name]
		if m == nil {
			m = map[string]float64{}
			results[name] = m
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				m[f[i+1]] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if !pass {
		log.Fatal("benchmark run did not report PASS")
	}
	return results
}

// writeJSON writes results to path, two-space indented with a trailing
// newline.
func writeJSON(path string, results map[string]map[string]float64) {
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(results), path)
}
