package domain

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/linear"
	"repro/internal/sim"
)

// TestMonitorWakeAllocatesNothing: a monitor wake — the hang poll over an
// idle checkpointing domain whose epoch is not yet due — allocates
// nothing, so a supervisor costs no garbage while its domains are quiet.
func TestMonitorWakeAllocatesNothing(t *testing.T) {
	p := ckptPolicy(time.Hour)
	p.HangAfter = 4 * time.Millisecond
	s, fc := fakeSupervisor(p)
	defer s.Close()
	spawnKV(t, s, newKVState())
	fc.ExpectArmed(t, fc.Now().Add(p.hangTick()))
	fc.Next()
	if allocs := testing.AllocsPerRun(100, func() { fc.Next() }); allocs != 0 {
		t.Fatalf("a monitor wake allocates %v objects, want 0", allocs)
	}
}

// TestSpawnRacingClose: a Spawn that returns nil while Close runs has its
// domain retired by that Close — Done is closed once Close returns. Before
// the closed check and the append shared one critical section, a Close
// between them missed the new domain, which then served on forever.
func TestSpawnRacingClose(t *testing.T) {
	handler := func(linear.Owned[int]) error { return nil }
	for i := 0; i < 20_000; i++ {
		s := NewSupervisor(Policy{}, sim.Wall{})
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		d, err := Spawn(s, Config[int]{Handler: handler})
		<-closed
		if err != nil {
			continue
		}
		select {
		case <-d.Done():
		default:
			t.Fatalf("pair %d: Spawn succeeded, Close returned, and the domain is still %v", i, d.State())
		}
	}
}

// bannedTime are the package time functions that read the clock or wait
// on it.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// timeReads lists every use of a bannedTime function in the files that
// match pattern, except test files.
func timeReads(pattern string) ([]string, error) {
	names, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var found []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg := "" // what the file calls package time
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				pkg = "time"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg && bannedTime[sel.Sel.Name] {
					found = append(found, fset.Position(sel.Pos()).String()+": time."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return found, nil
}

// TestOnlyTheClockReadsTime: no non-test file of the package reads
// package time's clock or waits on its timers — every deadline is the
// monitor's, on the supervisor's sim.Clock. The fixture proves the check
// fires, under an import alias too.
func TestOnlyTheClockReadsTime(t *testing.T) {
	found, err := timeReads("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: read time through the supervisor's clock", f)
	}
	found, err = timeReads(filepath.Join("testdata", "late_clock.go.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 || !strings.HasSuffix(found[0], ".Sleep") || !strings.HasSuffix(found[1], ".Now") {
		t.Fatalf("the fixture's two time reads were not both found: %q", found)
	}
}
