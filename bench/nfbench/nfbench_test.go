package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The workloads start children of the running binary; under go test that
// is the test binary, which then has to act as nfbench.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4):
// the spread nfbench prints must be the one the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2.0, 7.0, 9.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the metric table:
// the file the driver reads and the names the command prints are one list.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the table", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloads[w.Name].Why {
			t.Errorf("workload %d: file has %q / %q, table has %q / %q", i, w.Name, w.Why, workloadNames[i], workloads[workloadNames[i]].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the driver allows 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the table", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: file has %+v, table has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound in the file does not match the table's %v", kind, g.Name, w.Bound)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}

// TestSmoke runs every workload's whole sequence — set-up, untraced run,
// traced run, ladder — for under a second each on 1/16-size tables, and
// requires every metric named for the workload to be emitted and every
// correctness check to pass.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames {
		if name == wlSock && testing.Short() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			o := options{seed: 1, seconds: 0.7, warmup: 300 * time.Millisecond, scale: 16, outDir: out}
			rep, err := measure(o, name, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if len(rep.Checks) == 0 {
				t.Error("no correctness check ran")
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := rep.Metrics[d.Name]; d.on(name) && !ok {
					t.Errorf("metric %s (%s) was not emitted", d.Name, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if !(rep.Metrics[d.Name] > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, rep.Metrics[d.Name])
				}
			}
			if _, err := os.Stat(out + "/trace-" + name + ".jsonl"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
