// Command nfbench is this repository's one benchmark: four named
// workloads, each run in a fresh child process for a fixed measured
// duration after a fixed warm-up, reporting the end-to-end metrics of the
// NF (measured with all harness timing off) and, from a separate traced
// run, what every layer under it costs. See ../README.md.
//
//	go run -C bench ./nfbench                  all four workloads, the full report
//	go run -C bench ./nfbench -sets 2          repeatability: whole sets, alternating order
//	go run -C bench ./nfbench -workload mem-steady -seed 1 -seconds 10 -trace 0
//	                                           one workload in the driver's form (bash bench/run.sh does this)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Run lengths. The untraced run measures -seconds; the traced run and a
// ladder rung measure -seconds too, but no longer than their own lengths
// below: 30 s, 10 s and 5 s in the full report, 10 s, 10 s and 5 s in the
// driver's form.
const (
	defaultWarmup    = 3 * time.Second
	maxTracedSeconds = 10
	maxLadderSeconds = 5
	// setupRuns is how many children a run starts only to time their
	// set-up; setup_s is the median over them and the measured run.
	setupRuns = 4
)

// errUsage marks a bad command line.
var errUsage = errors.New("usage")

// options is one invocation. The flags set the first five fields; the rest
// are fixed for every run of the command, and only the smoke test, which has
// to fit inside go test, shrinks them.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	sets     int

	warmup time.Duration
	scale  int // divide table sizes by this
	outDir string
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := runChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "nfbench:", err)
			os.Exit(1)
		}
		return
	}
	o := options{warmup: defaultWarmup, scale: 1}
	flag.StringVar(&o.workload, "workload", "", "run one workload in the driver's form: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generator: flow set, Zipf draws, deny share, fault schedule")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds of the untraced run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.IntVar(&o.sets, "sets", 1, "run this many whole sets, alternating workload order, and report the spread")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nfbench:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("%w: unexpected argument %q", errUsage, flag.Arg(0))
	}
	if o.workload != "" {
		if _, ok := workloads[o.workload]; !ok {
			return fmt.Errorf("%w: unknown workload %q (want one of %s)", errUsage, o.workload, strings.Join(workloadNames, ", "))
		}
	}
	if o.seconds <= 0 || o.sets < 1 {
		return fmt.Errorf("%w: -seconds and -sets must be positive", errUsage)
	}
	dir, err := defaultOutDir()
	if err != nil {
		return err
	}
	o.outDir = dir
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if o.workload != "" {
		return runDriver(o)
	}
	return runAll(o)
}

func (o options) childConfig() runConfig {
	return runConfig{
		Seed: o.seed, Warmup: o.warmup, Seconds: time.Duration(o.seconds * float64(time.Second)),
		Scale: o.scale, OutDir: o.outDir,
	}
}

// defaultOutDir is out/ beside the benchmark module's go.mod, whether the
// command runs from the repository root or from bench/.
func defaultOutDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro/bench\n") {
			return filepath.Join(dir, "out"), nil
		}
	}
	return "", errors.New("cannot find bench/go.mod from the working directory; run from the repository root or from bench/")
}

// childEnv carries a child's whole assignment, so that the command line
// has no flag a user could set to make two runs incomparable. Under go
// test the running binary is the test binary, which must then act as
// nfbench (see TestMain).
const childEnv = "NFBENCH_CHILD"

// childSpec is what the parent hands a child process.
type childSpec struct {
	Role    string    `json:"role"`    // "nf" or "gen"
	Started time.Time `json:"started"` // the parent's clock just before it started the child
	Config  runConfig `json:"config"`
}

func runChild(spec string) error {
	var s childSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		return fmt.Errorf("%s: %w", childEnv, err)
	}
	switch s.Role {
	case "nf":
		res, err := runNF(s.Config, s.Started)
		if err != nil {
			return err
		}
		return printResult(res)
	case "gen":
		return runGen(s.Config)
	}
	return fmt.Errorf("%s: unknown role %q", childEnv, s.Role)
}

// printResult writes a child's result as its last line of output.
func printResult(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("RESULT %s\n", data)
	return err
}
