package sim

import (
	"sync"
	"testing"
	"time"
)

// epoch is where every Fake starts.
var epoch = time.Unix(1_000_000, 0)

// Fake is a test's clock: time moves only when the test moves it, and
// the alarm fires only then. Every time the clock's owner sets its alarm
// the Fake also reports the deadline on rearmed — the handshake that
// tells a test a wake has been handled in full. Reports queue in order,
// one per wake; a test that reads them must read every one. The queue is
// deep enough that a test which reads none never fills it.
type Fake struct {
	mu      sync.Mutex
	t       time.Time
	at      time.Time // the armed deadline; zero when stopped
	fire    chan time.Time
	rearmed chan time.Time
}

// NewFake returns a Fake at a fixed instant, its alarm stopped.
func NewFake() *Fake {
	return &Fake{
		t:       epoch,
		fire:    make(chan time.Time, 1),
		rearmed: make(chan time.Time, 1024),
	}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Alarm implements Clock. A Fake has one alarm, so it serves one
// supervisor.
func (f *Fake) Alarm() (<-chan time.Time, func(at, now time.Time)) { return f.fire, f.set }

func (f *Fake) set(at, _ time.Time) {
	f.mu.Lock()
	f.at = at
	f.mu.Unlock()
	select {
	case f.rearmed <- at:
	default:
	}
}

// MoveTo sets the clock to t and fires the alarm if that makes its
// deadline due. It reports whether it fired.
func (f *Fake) MoveTo(t time.Time) bool {
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

// Advance moves the clock on by d and reports whether the alarm fired.
func (f *Fake) Advance(d time.Duration) bool { return f.MoveTo(f.Now().Add(d)) }

// Armed waits for the next report and returns the deadline it armed
// (zero: none).
func (f *Fake) Armed() time.Time {
	select {
	case at := <-f.rearmed:
		return at
	case <-time.After(10 * time.Second):
		panic("sim.Fake: the alarm was not re-armed within 10s")
	}
}

// Next moves the clock to the armed deadline, which fires the alarm, and
// returns the deadline armed after the wake was handled. It allocates
// nothing.
func (f *Fake) Next() time.Time {
	f.mu.Lock()
	at := f.at
	f.mu.Unlock()
	if at.IsZero() || !f.MoveTo(at) {
		panic("sim.Fake.Next: no alarm armed")
	}
	return <-f.rearmed
}

// Step advances the clock by d, which must fire the alarm.
func (f *Fake) Step(t testing.TB, d time.Duration) {
	t.Helper()
	if !f.Advance(d) {
		t.Fatalf("advancing %v fired nothing", d)
	}
}

// ExpectArmed reads the next report and fails unless it is at.
func (f *Fake) ExpectArmed(t testing.TB, at time.Time) {
	t.Helper()
	if got := f.Armed(); !got.Equal(at) {
		t.Fatalf("alarm armed at %v, want %v", f.Since(got), f.Since(at))
	}
}

// Since renders an instant as the time since a Fake's start.
func (f *Fake) Since(at time.Time) string {
	if at.IsZero() {
		return "nothing"
	}
	return "+" + at.Sub(epoch).String()
}
