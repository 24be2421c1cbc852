package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun executes every example binary end to end, asserting a
// zero exit and a recognizable line of output — the examples are living
// documentation, so they must keep working. Skipped in -short mode
// (each invocation compiles and runs a program).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take seconds each")
	}
	cases := map[string]string{
		"quickstart":          "ErrRevoked",
		"isolated-maglev":     "faults contained: 1",
		"secure-store":        "bug-leaky-read",
		"firewall-checkpoint": "sharing PRESERVED",
		"rollback-middlebox":  "state loss within the bound: at most 12 packets",
		"verified-extension":  "rejected at information flow",
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctxPath := filepath.Join("examples", name)
			cmd := exec.Command("go", "run", "./"+ctxPath)
			cmd.Dir = "."
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatalf("example %s timed out", name)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Fatalf("example %s output missing %q:\n%s", name, want, out)
			}
		})
	}
}
