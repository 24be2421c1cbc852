package faultinject

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/domain"
	"repro/internal/linear"
	"repro/internal/sim"
)

// TestInjectorDeterministic: same seed → same fault sequence, so chaos
// runs are reproducible.
func TestInjectorDeterministic(t *testing.T) {
	outcomes := func(seed int64) []bool {
		inj := New(seed)
		inj.PanicProb = 0.3
		out := make([]bool, 200)
		for i := range out {
			func() {
				defer func() { out[i] = recover() != nil }()
				inj.Point("det")
			}()
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at call %d", i)
		}
	}
	if c := outcomes(43); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

// TestInjectorRates: injected fault counts track the configured
// probabilities, and the accounting adds up.
func TestInjectorRates(t *testing.T) {
	inj := New(7)
	inj.PanicProb = 0.2
	inj.StallProb = 0.1
	inj.StallFor = 0 // rate test only; no real sleeping
	const n = 5000
	for i := 0; i < n; i++ {
		func() {
			defer func() { _ = recover() }()
			inj.Point("rate")
		}()
	}
	panics, stalls := inj.Stats.Panics.Load(), inj.Stats.Stalls.Load()
	if inj.Stats.Calls.Load() != n {
		t.Fatalf("calls = %d, want %d", inj.Stats.Calls.Load(), n)
	}
	if lo, hi := uint64(n/10), uint64(3*n/10); panics < lo || panics > hi {
		t.Fatalf("panics = %d, want within [%d,%d] for p=0.2", panics, lo, hi)
	}
	if lo, hi := uint64(n/20), uint64(n/5); stalls < lo || stalls > hi {
		t.Fatalf("stalls = %d, want within [%d,%d] for p=0.1", stalls, lo, hi)
	}
}

// TestWrapPanicsReachSupervisor: a handler wrapped with an injection
// point ahead of its work panics; the injected panic unwinds to the
// domain entry point and is handled exactly like a handler fault —
// payload reclaimed, domain restarted, traffic continues.
func TestWrapPanicsReachSupervisor(t *testing.T) {
	s := domain.NewSupervisor(domain.Policy{
		Backoff:     50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		MaxRestarts: -1,
	}, sim.Wall{})
	defer s.Close()

	inj := New(3)
	inj.PanicProb = 0.25
	var processed, released atomic.Int64
	h := func(msg linear.Owned[int]) error {
		inj.Point("test")
		if _, err := msg.Into(); err != nil {
			return err
		}
		processed.Add(1)
		return nil
	}
	d, err := domain.Spawn(s, domain.Config[int]{
		Name:    "chaotic",
		Mailbox: 16,
		Release: func(int) { released.Add(1) },
		Handler: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if err := d.Inbox().Send(linear.New(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Inbox().Close()
	select {
	case <-d.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("domain did not drain")
	}
	if inj.Stats.Panics.Load() == 0 {
		t.Fatal("no panics injected")
	}
	// Conservation: panicked payloads are reclaimed (the point fires
	// before the handler consumes, so the entry point releases them); the
	// rest are processed.
	if got := processed.Load() + released.Load(); got != n {
		t.Fatalf("processed %d + released %d = %d, want %d",
			processed.Load(), released.Load(), got, n)
	}
	sn := d.Snapshot()
	if sn.Crashes != inj.Stats.Panics.Load() {
		t.Fatalf("crashes = %d, injected panics = %d", sn.Crashes, inj.Stats.Panics.Load())
	}
}
