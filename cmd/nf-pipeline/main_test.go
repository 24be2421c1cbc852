package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/statestore"
)

// TestValidateFlags holds nf-pipeline to one way of running: the
// contradictions its remaining flags can still express are refused, and
// every flag of a retired mode is refused rather than silently accepted.
func TestValidateFlags(t *testing.T) {
	writable := t.TempDir()
	// A path below a regular file can never become a directory — the
	// portable "unusable state dir" (works even as root, where mode-0
	// directories are still writable).
	blockerFile := filepath.Join(writable, "blocker")
	if err := os.WriteFile(blockerFile, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	unusable := filepath.Join(blockerFile, "state")
	args := func(a ...string) []string { return a }
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = valid
	}{
		{name: "defaults", args: args()},
		{name: "listen+egress", args: args("-listen", "127.0.0.1:9000", "-egress", "127.0.0.1:9001")},
		{name: "supervised checkpointing", args: args("-workers", "4", "-checkpoint-every", "10ms")},
		// Every run is supervised, so an epoch needs nothing else.
		{name: "checkpoint without supervise", args: args("-checkpoint-every", "10ms")},
		{name: "egress without listen", args: args("-egress", "127.0.0.1:9001"),
			wantErr: "needs -listen"},
		{name: "negative epoch", args: args("-checkpoint-every", "-1s"),
			wantErr: "must be >= 0"},

		// The traffic generator is its own command.
		{name: "pktgen", args: args("-target", "127.0.0.1:9000", "-pps", "1000", "-count", "10"),
			wantErr: "not defined: -target"},
		{name: "pktgen with sockets", args: args("-target", "127.0.0.1:9000", "-sockets", "32"),
			wantErr: "not defined: -target"},
		{name: "pps without target", args: args("-pps", "1000"), wantErr: "not defined: -pps"},
		{name: "sockets without target", args: args("-sockets", "4"), wantErr: "not defined: -sockets"},
		{name: "target conflicts with listen", args: args("-listen", "127.0.0.1:9000", "-target", "127.0.0.1:9000"),
			wantErr: "not defined: -target"},
		{name: "target conflicts with supervise", args: args("-target", "127.0.0.1:9000", "-supervise"),
			wantErr: "not defined: -target"},
		{name: "target conflicts with reuseport", args: args("-target", "127.0.0.1:9000", "-reuseport"),
			wantErr: "not defined: -target"},
		{name: "target conflicts with state-dir", args: args("-target", "127.0.0.1:9000", "-state-dir", filepath.Join(writable, "state6")),
			wantErr: "not defined: -target"},
		{name: "target conflicts with fsync", args: args("--target=127.0.0.1:9000", "-fsync", "group"),
			wantErr: "not defined: -target"},
		{name: "trace-sample conflicts with target", args: args("-target", "127.0.0.1:9000", "-trace-sample", "1024"),
			wantErr: "not defined: -target"},

		// The mode switches are gone: isolation, supervision and kernel
		// fan-out are how every run works.
		{name: "checkpoint with supervise=false", args: args("-supervise=false", "-checkpoint-every", "10ms"),
			wantErr: "not defined: -supervise"},
		{name: "listen+reuseport", args: args("-listen", "127.0.0.1:9000", "-reuseport"),
			wantErr: "not defined: -reuseport"},
		{name: "reuseport without listen", args: args("-reuseport"), wantErr: "not defined: -reuseport"},

		{name: "trace-sample with listen", args: args("-listen", "127.0.0.1:9000", "-trace-sample", "1024")},
		{name: "trace-sample of one", args: args("-listen", "127.0.0.1:9000", "-trace-sample", "1")},
		{name: "trace-sample without listen", args: args("-trace-sample", "1024"),
			wantErr: "needs -listen"},
		{name: "trace-sample zero", args: args("-listen", "127.0.0.1:9000", "-trace-sample", "0"),
			wantErr: "must be >= 1"},
		{name: "trace-sample negative", args: args("-listen", "127.0.0.1:9000", "-trace-sample", "-8"),
			wantErr: "must be >= 1"},
		{name: "trace-sample not a power of two", args: args("-listen", "127.0.0.1:9000", "-trace-sample", "1000"),
			wantErr: "power of two"},

		{name: "durable checkpointing", args: args("-checkpoint-every", "10ms", "-state-dir", filepath.Join(writable, "state"))},
		{name: "state-dir without checkpointing", args: args("-state-dir", filepath.Join(writable, "state3")),
			wantErr: "contradicts -checkpoint-every=0"},
		// -checkpoint-every=0 passed explicitly alongside -state-dir: the
		// contradiction check is on the value, not flag presence.
		{name: "state-dir with checkpoint-every=0", args: args("-checkpoint-every", "0", "-state-dir", filepath.Join(writable, "state4")),
			wantErr: "contradicts -checkpoint-every=0"},
		{name: "empty state-dir", args: args("-checkpoint-every", "10ms", "-state-dir", ""),
			wantErr: "needs a directory path"},
		{name: "unusable state-dir", args: args("-checkpoint-every", "10ms", "-state-dir", unusable),
			wantErr: "not usable"},
		// The store always group-commits; there is no durability mode left
		// to choose.
		{name: "durable with explicit fsync", args: args("-checkpoint-every", "10ms", "-state-dir", filepath.Join(writable, "state2"), "-fsync", "always"),
			wantErr: "not defined: -fsync"},
		{name: "fsync without state-dir", args: args("-checkpoint-every", "10ms", "-fsync", "group"),
			wantErr: "not defined: -fsync"},
		{name: "bad fsync value", args: args("-checkpoint-every", "10ms", "-state-dir", filepath.Join(writable, "state5"), "-fsync=sometimes"),
			wantErr: "not defined: -fsync"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestNineFlags: the command line is the nine flags below and nothing
// else — a new knob has to replace one of them or argue for a tenth.
func TestNineFlags(t *testing.T) {
	var got []string
	fs := flagSet(new(options), io.Discard)
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := "batches checkpoint-every crashrate egress listen metrics-addr state-dir trace-sample workers"
	if strings.Join(got, " ") != want {
		t.Fatalf("flags = %v, want %s", got, want)
	}
}

func TestParseArgsRejectsUnknownInput(t *testing.T) {
	for _, a := range [][]string{{"-workers", "0"}, {"-crashrate", "1"}, {"stray"}, {"-nonsense"}} {
		if _, err := parseArgs(a, io.Discard); err == nil {
			t.Errorf("parseArgs(%q) accepted", a)
		}
	}
	o, err := parseArgs([]string{"-workers", "4", "-batches", "50", "-crashrate", "0.05"}, io.Discard)
	if err != nil || o.workers != 4 || o.batches != 50 || o.crashrate != 0.05 {
		t.Fatalf("parseArgs = %+v, %v", o, err)
	}
}

// summaryLine returns the summary line that starts with label.
func summaryLine(t *testing.T, out, label string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, label) {
			return l
		}
	}
	t.Fatalf("no %q line in:\n%s", label, out)
	return ""
}

// TestRunRecoversEveryFault runs the command's one configuration over
// the simulated NIC under chaos: every injected fault is recovered, each
// recovery is a restore, and the port conserves packets
// (one batch lost per fault, the rest transmitted).
func TestRunRecoversEveryFault(t *testing.T) {
	var out strings.Builder
	o := options{workers: 2, batches: 300, crashrate: 0.05, checkpointEvery: 5 * time.Millisecond}
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var faults, recovered int
	fmt.Sscanf(summaryLine(t, out.String(), "faults:"), "faults: %d injected, %d recovered", &faults, &recovered)
	var rx, tx int
	fmt.Sscanf(summaryLine(t, out.String(), "port:"), "port: rx=%d tx=%d", &rx, &tx)
	var every string
	var taken, failed, restores int
	fmt.Sscanf(summaryLine(t, out.String(), "checkpoint:"), "checkpoint: %s epochs: %d taken (%d failed), %d restores",
		&every, &taken, &failed, &restores)
	if faults == 0 || recovered != faults || restores != recovered || rx-tx != faults*batchSize {
		t.Fatalf("faults=%d recovered=%d restores=%d rx=%d tx=%d\n%s",
			faults, recovered, restores, rx, tx, out.String())
	}
}

// TestRunRestoresAcrossRuns: a second run over the same -state-dir boots
// every worker from its last durable epoch, one restore each. A worker's
// first epoch is due 2 ms after it starts, so the first run serves tens
// of milliseconds of batches and must leave an epoch for every worker in
// the store; a worker without one would boot on empty tables instead.
func TestRunRestoresAcrossRuns(t *testing.T) {
	o := options{workers: 2, batches: 3000, checkpointEvery: 2 * time.Millisecond, stateDir: t.TempDir()}
	var first, second strings.Builder
	if err := run(o, &first); err != nil {
		t.Fatalf("first run: %v\n%s", err, first.String())
	}
	var persisted int
	fmt.Sscanf(summaryLine(t, first.String(), "statestore:"), "statestore: %d epochs persisted", &persisted)
	store, err := statestore.Open(statestore.Config{Dir: o.stateDir})
	if err != nil {
		t.Fatal(err)
	}
	domains := store.EpochCount()
	store.Close()
	if persisted < o.workers || domains != o.workers {
		t.Fatalf("first run persisted %d epochs, for %d of %d workers\n%s", persisted, domains, o.workers, first.String())
	}
	o.batches = 20
	if err := run(o, &second); err != nil {
		t.Fatalf("second run: %v\n%s", err, second.String())
	}
	if l := summaryLine(t, second.String(), "checkpoint:"); !strings.HasSuffix(l, ", 2 restores") {
		t.Fatalf("second run: %s\nfirst run:\n%s", l, first.String())
	}
}
