package domain

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/linear"
)

// fakeClock is the tests' clock: time moves only when a test moves it,
// and the monitor's alarm fires only then. Every time the monitor sets
// its alarm it also reports the deadline on rearmed — the handshake that
// tells a test a wake has been handled in full. Reports queue in order,
// one per monitor wake; a test that reads them must read every one. The
// queue is deep enough that a test which reads none never fills it.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	at      time.Time // the armed deadline; zero when stopped
	fire    chan time.Time
	rearmed chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{
		t:       time.Unix(1_000_000, 0),
		fire:    make(chan time.Time, 1),
		rearmed: make(chan time.Time, 1024),
	}
}

// fakeSupervisor starts a supervisor on a fake clock.
func fakeSupervisor(p Policy) (*Supervisor, *fakeClock) {
	fc := newFakeClock()
	return newSupervisor(p, fc), fc
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) alarm() (<-chan time.Time, func(at, now time.Time)) { return f.fire, f.set }

func (f *fakeClock) set(at, _ time.Time) {
	f.mu.Lock()
	f.at = at
	f.mu.Unlock()
	select {
	case f.rearmed <- at:
	default:
	}
}

// moveTo sets the clock to t and fires the alarm if that makes its
// deadline due. It reports whether it fired.
func (f *fakeClock) moveTo(t time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = t
	if f.at.IsZero() || f.at.After(t) {
		return false
	}
	f.at = time.Time{}
	select {
	case f.fire <- t:
	default: // a fire is pending already; the wake it causes sees t
	}
	return true
}

// advance moves the clock on by d and reports whether the alarm fired.
func (f *fakeClock) advance(d time.Duration) bool { return f.moveTo(f.now().Add(d)) }

// armed waits for the monitor's next report and returns the deadline it
// armed (zero: none).
func (f *fakeClock) armed() time.Time {
	select {
	case at := <-f.rearmed:
		return at
	case <-time.After(10 * time.Second):
		panic("fakeClock: the monitor did not re-arm within 10s")
	}
}

// next moves the clock to the armed deadline, which fires the alarm, and
// returns the deadline the monitor armed after handling the wake. It
// allocates nothing.
func (f *fakeClock) next() time.Time {
	f.mu.Lock()
	at := f.at
	f.mu.Unlock()
	if at.IsZero() || !f.moveTo(at) {
		panic("fakeClock.next: no alarm armed")
	}
	return <-f.rearmed
}

// step advances the clock by d, which must fire the alarm.
func (f *fakeClock) step(t *testing.T, d time.Duration) {
	t.Helper()
	if !f.advance(d) {
		t.Fatalf("advancing %v fired nothing", d)
	}
}

// expectArmed reads the monitor's next report and fails unless it is at.
func (f *fakeClock) expectArmed(t *testing.T, at time.Time) {
	t.Helper()
	if got := f.armed(); !got.Equal(at) {
		t.Fatalf("monitor armed at %v, want %v", f.since(got), f.since(at))
	}
}

// since renders an instant as the time since the fake epoch.
func (f *fakeClock) since(at time.Time) string {
	if at.IsZero() {
		return "nothing"
	}
	return "+" + at.Sub(time.Unix(1_000_000, 0)).String()
}

// TestMonitorWakeAllocatesNothing: a monitor wake — the hang poll over an
// idle checkpointing domain whose epoch is not yet due — allocates
// nothing, so a supervisor costs no garbage while its domains are quiet.
func TestMonitorWakeAllocatesNothing(t *testing.T) {
	p := ckptPolicy(time.Hour)
	p.HangAfter = 4 * time.Millisecond
	s, fc := fakeSupervisor(p)
	defer s.Close()
	spawnKV(t, s, newKVState())
	fc.expectArmed(t, fc.now().Add(p.hangTick()))
	fc.next()
	if allocs := testing.AllocsPerRun(100, func() { fc.next() }); allocs != 0 {
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
		s := NewSupervisor(Policy{})
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
// match pattern, except test files and the file named skip.
func timeReads(pattern, skip string) ([]string, error) {
	names, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var found []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") || filepath.Base(name) == skip {
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

// TestOnlyTheClockReadsTime: outside clock.go, no non-test file of the
// package reads package time's clock or waits on its timers — every
// deadline is the monitor's, on the supervisor's clock. The fixture
// proves the check fires, under an import alias too.
func TestOnlyTheClockReadsTime(t *testing.T) {
	found, err := timeReads("*.go", "clock.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("%s: read time through the supervisor's clock", f)
	}
	found, err = timeReads(filepath.Join("testdata", "late_clock.go.txt"), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 || !strings.HasSuffix(found[0], ".Sleep") || !strings.HasSuffix(found[1], ".Now") {
		t.Fatalf("the fixture's two time reads were not both found: %q", found)
	}
}
