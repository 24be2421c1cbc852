package main

// The parent side: start the children, merge what they report, and
// print it — the full report, the repeatability report, or one workload
// in the driver's form.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// child is one child process of this binary.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

func startChild(ctx context.Context, cfg runConfig, role string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(childSpec{Role: role, Started: time.Now(), Config: cfg})
	if err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	return &child{cmd: cmd, stdin: stdin, out: sc}, nil
}

// expect reads the child's output up to the line that starts with prefix
// and returns the rest of that line.
func (c *child) expect(prefix string) (string, error) {
	for c.out.Scan() {
		if rest, ok := strings.CutPrefix(c.out.Text(), prefix); ok {
			return rest, nil
		}
	}
	if err := c.out.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s child ended before printing %q", filepath.Base(c.cmd.Path), strings.TrimSpace(prefix))
}

// stop makes sure the child has ended and been waited for.
func (c *child) stop() {
	if c.cmd.ProcessState == nil {
		_ = c.cmd.Process.Kill() // no-op error when it already exited
		_ = c.cmd.Wait()
	}
}

// result reads the child's output up to its RESULT line and decodes it.
func (c *child) result(v any) error {
	line, err := c.expect("RESULT ")
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(line), v)
}

// runResult is one run of one workload, merged across its processes.
type runResult struct {
	nfResult
	Gen       *genResult
	Attempted uint64
	Failed    uint64
}

// runOnce runs one workload once: the NF child, and for sock-rate the
// generator process beside it, started first so the NF can aim its egress
// at the generator's sink.
func runOnce(cfg runConfig) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Warmup+cfg.Seconds+90*time.Second)
	defer cancel()
	res := &runResult{}
	var gen *child
	var err error
	if cfg.workload().RatePPS > 0 {
		if gen, err = startChild(ctx, cfg, "gen"); err != nil {
			return nil, err
		}
		defer gen.stop()
		if cfg.TxTarget, err = gen.expect("SINK "); err != nil {
			return nil, err
		}
	}
	nf, err := startChild(ctx, cfg, "nf")
	if err != nil {
		return nil, err
	}
	defer nf.stop()
	if gen != nil {
		listen, err := nf.expect("LISTEN ")
		if err != nil {
			return nil, err
		}
		if _, err := fmt.Fprintf(gen.stdin, "TARGET %s\n", listen); err != nil {
			return nil, err
		}
		res.Gen = &genResult{}
		if err := gen.result(res.Gen); err != nil {
			return nil, err
		}
	}
	if err := nf.result(&res.nfResult); err != nil {
		return nil, err
	}
	if gen != nil {
		if err := gen.cmd.Wait(); err != nil {
			return nil, err
		}
	}
	if err := nf.cmd.Wait(); err != nil {
		return nil, err
	}
	res.Attempted = uint64(res.Counts["offered"])
	res.Failed = uint64(max(res.Counts["lost"]-res.Counts["lost_in_faults"], 0))
	if res.Gen != nil {
		mergeGen(res, res.Gen)
	}
	return res, nil
}

// mergeGen folds the generator's side of sock-rate into the run: wire-
// to-wire latency, loss, and the checks only the two ends together can
// make. A packet the NF shed or a socket buffer dropped is a failed
// operation (the driver's failed count, e2e.loss_ratio), not a wrong
// output: the checks only require that every packet is accounted for.
func mergeGen(res *runResult, g *genResult) {
	m, c := res.Metrics, res.Counts
	filtered := uint64(c["filtered"])
	shed := m["netport.shed_ring_full"] + m["netport.shed_pool_empty"] + m["netport.shed_parse_error"]
	missing := int64(g.Sent) - int64(g.Received) - int64(filtered)
	m["e2e.lat_p50_us"], m["e2e.lat_p99_us"] = g.LatP50us, g.LatP99us
	m["gen.offered_pps"], m["gen.late_ms_p99"] = g.OfferedPPS, g.LateP99ms
	m["e2e.loss_ratio"] = ratio(float64(missing), float64(g.Sent))
	m["delivered_ratio"] = 1 - m["e2e.loss_ratio"]
	m["netport.sockloss"] = float64(g.Sent) - c["netport_rx_datagrams"]
	c["lat_samples"] = float64(g.LatSamples)
	c["gen_sent"], c["gen_received"], c["gen_send_errors"] = float64(g.Sent), float64(g.Received), float64(g.SendErrors)
	c["window_sent"], c["window_lost"] = float64(g.WindowSent), float64(g.WindowLost)
	res.Attempted, res.Failed = g.Sent, uint64(max(missing, 0))
	afterNF := c["netport_tx_packets"] - float64(g.Received)
	res.check("wire-conservation", float64(missing) == shed+m["netport.sockloss"]+afterNF && m["netport.sockloss"] >= 0 && afterNF >= 0,
		"generator sent %d = sink received %d + firewall filtered %d + shed %.0f + socket loss before the NF %.0f and after it %.0f",
		g.Sent, g.Received, filtered, shed, m["netport.sockloss"], afterNF)
	res.check("filtered-is-denied", filtered <= g.SentDenied && int64(g.SentDenied-filtered) <= missing,
		"firewall filtered %d, generator sent %d packets to denied flows (%d packets never reached the firewall)", filtered, g.SentDenied, missing)
	res.check("flows-pinned", g.Unpinned == 0 && g.DeniedAtSink == 0 && g.Malformed == 0,
		"%d flows over %d backends at the sink; %d packets at a second backend, %d of denied flows, %d malformed",
		g.FlowsAtSink, g.BackendsSeen, g.Unpinned, g.DeniedAtSink, g.Malformed)
}

// report is everything measured for one workload in one set.
type report struct {
	Workload string             `json:"workload"`
	Metrics  map[string]float64 `json:"metrics"`
	Counts   map[string]float64 `json:"counts"`
	Checks   []check            `json:"checks"`
	Ledger   []ledgerLine       `json:"ledger,omitempty"`
	Flags    []string           `json:"flags,omitempty"`

	attempted, failed uint64
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *report) absorb(tag string, run *runResult) {
	for _, c := range run.Checks {
		c.Name = tag + ":" + c.Name
		r.Checks = append(r.Checks, c)
	}
}

// measure runs one workload's whole sequence: set-ups, the untraced run
// (end-to-end metrics, all harness timing off), the traced run (per-layer
// metrics), and on mem-steady the ladder rungs.
func measure(o options, name string, withLayers bool) (*report, error) {
	rep := &report{Workload: name, Metrics: map[string]float64{}, Counts: map[string]float64{}}
	cfg := o.childConfig()
	cfg.Workload = name

	// Set-up takes tens of milliseconds, so one reading of it is mostly the
	// sandbox's noise: setupRuns children that stop at their first forwarded
	// packet are timed besides the measured run, and setup_s is the median.
	setup := cfg
	setup.Warmup, setup.Seconds = 0, 0
	var setups []float64
	for i := 1; i <= setupRuns; i++ {
		run, err := runOnce(setup)
		if err != nil {
			return nil, fmt.Errorf("%s set-up %d: %w", name, i, err)
		}
		rep.absorb(fmt.Sprintf("setup%d", i), run)
		setups = append(setups, run.Metrics["setup_s"])
	}
	plain, err := runOnce(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.absorb("untraced", plain)
	rep.attempted, rep.failed = plain.Attempted, plain.Failed
	setups = append(setups, plain.Metrics["setup_s"])

	if withLayers {
		tcfg := cfg
		tcfg.Traced, tcfg.Seconds = true, min(cfg.Seconds, maxTracedSeconds*time.Second)
		traced, err := runOnce(tcfg)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		rep.absorb("traced", traced)
		rep.Ledger = traced.Ledger
		for k, v := range traced.Metrics {
			rep.Metrics[k] = v
		}
		for k, v := range traced.Counts {
			rep.Counts["traced."+k] = v
		}
		// An open loop forwards what it is offered either way: there the
		// overhead shows as CPU per packet, not as packets per second.
		if workloads[name].RatePPS > 0 {
			rep.Metrics["trace.overhead_share"] = ratio(traced.Metrics["e2e.cpu_ns_per_pkt"], plain.Metrics["e2e.cpu_ns_per_pkt"]) - 1
		} else {
			rep.Metrics["trace.overhead_share"] = 1 - ratio(traced.Metrics["e2e.pkts_per_s"], plain.Metrics["e2e.pkts_per_s"])
		}
	}
	// Counters and end-to-end metrics come from the untraced run.
	for k, v := range plain.Metrics {
		rep.Metrics[k] = v
	}
	for k, v := range plain.Counts {
		rep.Counts[k] = v
	}
	rep.Metrics["setup_s"] = median(setups)

	if withLayers && name == wlSteady {
		if err := ladder(cfg, rep); err != nil {
			return nil, err
		}
	}
	if withLayers {
		rep.flag()
	}
	return rep, nil
}

// ladder runs mem-steady's traffic through three runner configurations,
// one layer added per rung, as a measurement of the crossing and mailbox
// costs that owes nothing to the spans.
func ladder(cfg runConfig, rep *report) error {
	cfg.Warmup, cfg.Seconds = min(cfg.Warmup, time.Second), min(cfg.Seconds, maxLadderSeconds*time.Second)
	ns := map[string]float64{}
	for _, rung := range []string{"direct", "isolated", "supervised"} {
		cfg.Rung = rung
		run, err := runOnce(cfg)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", rung, err)
		}
		rep.absorb("ladder-"+rung, run)
		ns[rung] = ratio(numWorkers*1e9, run.Metrics["e2e.pkts_per_s"])
		rep.Metrics["ladder."+rung+"_ns_per_pkt"] = ns[rung]
	}
	m := rep.Metrics
	m["ladder.isolation_delta_ns_per_pkt"] = ns["isolated"] - ns["direct"]
	m["ladder.supervision_delta_ns_per_pkt"] = ns["supervised"] - ns["isolated"]
	// What the spans predict for the same two deltas: one crossing per
	// stage per batch, and the CPU the worker-side spans leave over
	// (mailbox, dispatch, feeder) plus the hop out to the port.
	perBatch := batchSize * m["netbricks.batch_fill"]
	spanCross := ratio(m["sfi.crossing_ns"]*4, perBatch)
	var residual, hopOut float64
	for _, l := range rep.Ledger {
		switch l.Name {
		case "residual":
			residual = l.Ns
		case "domain.hop_out":
			hopOut = l.Ns
		}
	}
	m["xcheck.sfi.ratio"] = ratio(spanCross, m["ladder.isolation_delta_ns_per_pkt"])
	m["xcheck.domain.ratio"] = ratio(residual+hopOut, m["ladder.supervision_delta_ns_per_pkt"])
	return nil
}

// flag notes what a reader of the ledger should not miss.
func (r *report) flag() {
	for k, v := range r.Metrics {
		if strings.HasPrefix(k, "xcheck.") && v != 0 && (v < 0.8 || v > 1.25) {
			r.Flags = append(r.Flags, fmt.Sprintf("%s = %.2f: the two measurements disagree beyond [0.8, 1.25]", k, v))
		}
	}
	sort.Strings(r.Flags)
	var top ledgerLine
	for _, l := range r.Ledger {
		if l.Name != "residual" && l.Ns > top.Ns {
			top = l
		}
	}
	if top.Name == "dpdk.rx" {
		r.Flags = append(r.Flags, fmt.Sprintf("the generator (dpdk.rx, %.0f ns/pkt) is the largest line of the ledger", top.Ns))
	}
	if v := r.Metrics["ledger.residual_share"]; workloads[r.Workload].RatePPS == 0 && (v > 0.15 || v < -0.15) {
		r.Flags = append(r.Flags, fmt.Sprintf("ledger.residual_share = %.2f: the layers do not sum to the whole within 0.15", v))
	}
	if v := r.Metrics["trace.overhead_share"]; v > 0.10 {
		r.Flags = append(r.Flags, fmt.Sprintf("trace.overhead_share = %.2f: tracing costs more than 0.10", v))
	}
}

// stamp is the provenance every output carries.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Wire       string `json:"wire"`
	When       string `json:"when"`
}

func provenance(seed int64) stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Kernel: "unknown", Seed: seed,
		Wire: "host loopback, not a real link",
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
			s.Commit += "-dirty"
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(data))
	}
	return s
}

func (s stamp) print(w io.Writer) {
	fmt.Fprintf(w, "nfbench: commit %s, %s, GOMAXPROCS %d, %s, kernel %s, seed %d\n",
		s.Commit, s.GoVersion, s.GOMAXPROCS, s.CPU, s.Kernel, s.Seed)
	fmt.Fprintf(w, "nfbench: %d workers, batch %d, %d-byte frames; sock-rate crosses the %s\n",
		numWorkers, batchSize, frameLen, s.Wire)
}

// printReport prints every metric by name with its unit, the ledger, the
// checks and the flags.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n== %s — %s\n", rep.Workload, workloads[rep.Workload].Why)
	row := func(d metricDef, name string) {
		if v, ok := rep.Metrics[name]; ok {
			fmt.Fprintf(w, "  %-40s %16.4f %s\n", name, v, d.Unit)
		}
	}
	fmt.Fprintln(w, " end to end (untraced run):")
	for _, d := range endToEnd {
		row(d, d.Name)
	}
	if rep.Ledger == nil {
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "e2e.") && d.on(rep.Workload) {
				row(d, d.Name)
			}
		}
	} else {
		fmt.Fprintln(w, " per layer (spans from the traced run, counters from the untraced one):")
		for _, d := range perLayer {
			if d.on(rep.Workload) {
				row(d, d.Name)
			}
		}
		fmt.Fprintf(w, " ledger (ns per forwarded packet; the whole is the traced run's CPU per packet, %.1f):\n",
			rep.Counts["traced.window_cpu_ns_per_pkt_mean"])
		for _, l := range rep.Ledger {
			fmt.Fprintf(w, "  %-40s %16.2f ns\n", l.Name, l.Ns)
		}
	}
	fmt.Fprintf(w, " counts: offered %.0f, forwarded %.0f, filtered %.0f, lost %.0f, faults %.0f; %0.f slices",
		rep.Counts["offered"], rep.Counts["forwarded"], rep.Counts["filtered"], rep.Counts["lost"], rep.Counts["faults"], rep.Counts["slices"])
	if n, ok := rep.Counts["lat_samples"]; ok {
		fmt.Fprintf(w, "; %.0f latency samples", n)
	}
	fmt.Fprintln(w)
	for _, c := range rep.Checks {
		if !c.OK {
			fmt.Fprintf(w, " CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, " checks: %d, all passed: %t\n", len(rep.Checks), rep.correct())
	if rep.failed > 0 {
		fmt.Fprintf(w, " FAILED OPERATIONS %d of the %d packets offered were shed or lost\n", rep.failed, rep.attempted)
	}
	for _, f := range rep.Flags {
		fmt.Fprintf(w, " FLAG %s\n", f)
	}
}

// runAll is the one command: every workload, every metric, every check;
// with -sets N, N whole sets and the spread between them.
func runAll(o options) error {
	st := provenance(o.seed)
	st.print(os.Stdout)
	sets := make([][]*report, o.sets)
	ok := true
	for s := range sets {
		order := append([]string(nil), workloadNames...)
		if s%2 == 1 { // alternate the order so drift does not favour one workload
			slices.Reverse(order)
		}
		if o.sets > 1 {
			fmt.Printf("\n#### set %d of %d: %s\n", s+1, o.sets, strings.Join(order, ", "))
		}
		for _, name := range order {
			rep, err := measure(o, name, true)
			if err != nil {
				return err
			}
			printReport(os.Stdout, rep)
			ok = ok && rep.correct()
			sets[s] = append(sets[s], rep)
		}
	}
	out := map[string]any{"provenance": st, "sets": sets}
	if o.sets > 1 {
		spread := spreadTable(sets)
		printSpread(os.Stdout, spread)
		out["spread"] = spread
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "results.json"), data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nnfbench: wrote %s and trace-<workload>.jsonl\n", filepath.Join(o.outDir, "results.json"))
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// spreadRow is one metric on one workload across the sets.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Bound    float64 `json:"bound,omitempty"`
	// Agree: the sets differ by no more than the bound, as a share of
	// their median. Only end-to-end metrics have a bound.
	Agree *bool `json:"agree,omitempty"`
}

func spreadTable(sets [][]*report) []spreadRow {
	var rows []spreadRow
	for _, name := range workloadNames {
		add := func(d metricDef, e2e bool) {
			if !d.on(name) {
				return
			}
			var vals []float64
			for _, set := range sets {
				for _, rep := range set {
					if v, ok := rep.Metrics[d.Name]; ok && rep.Workload == name {
						vals = append(vals, v)
					}
				}
			}
			if len(vals) == 0 {
				return
			}
			q1, q2, q3 := quartiles(vals)
			row := spreadRow{Workload: name, Metric: d.Name, Unit: d.Unit, N: len(vals), Median: q2, Q1: q1, Q3: q3}
			if e2e {
				s := sorted(vals)
				agree := s[len(s)-1]-s[0] <= d.Bound*q2
				row.Bound, row.Agree = d.Bound, &agree
			}
			rows = append(rows, row)
		}
		for _, d := range endToEnd {
			add(d, true)
		}
		for _, d := range perLayer {
			add(d, false)
		}
	}
	return rows
}

func printSpread(w io.Writer, rows []spreadRow) {
	fmt.Fprintf(w, "\n#### spread across sets\n%-12s %-40s %14s %14s %14s %3s %-6s %s\n",
		"workload", "metric", "median", "q1", "q3", "n", "unit", "sets agree within bound")
	for _, r := range rows {
		agree := ""
		if r.Agree != nil {
			agree = fmt.Sprintf("%t (%.0f%%)", *r.Agree, r.Bound*100)
		}
		fmt.Fprintf(w, "%-12s %-40s %14.4f %14.4f %14.4f %3d %-6s %s\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, r.N, r.Unit, agree)
	}
}

// runDriver runs one workload in the driver's form and prints, as the
// last line of standard output, one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics for -trace 0, the per-layer
// metrics for -trace 1, each from every workload (0 where a metric does
// not exist on this one).
func runDriver(o options) error {
	st := provenance(o.seed)
	st.print(os.Stdout)
	rep, err := measure(o, o.workload, o.trace == 1)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		metrics[d.Name] = value{rep.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.correct(), "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.correct() {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}
