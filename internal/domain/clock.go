package domain

import "time"

// clock is the package's one source of time (TestOnlyTheClockReadsTime).
// Supervisors run on wallClock; tests move a fake one by hand.
type clock interface {
	now() time.Time
	// alarm makes the monitor's one timer, stopped: the channel it fires
	// on, and set, which arms it for the instant at (read against now) or
	// stops it for a zero at. A stale fire costs the monitor one scan.
	alarm() (fired <-chan time.Time, set func(at, now time.Time))
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) alarm() (<-chan time.Time, func(at, now time.Time)) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t.C, func(at, now time.Time) {
		if t.Stop(); !at.IsZero() {
			t.Reset(at.Sub(now))
		}
	}
}

// now reads the supervisor's clock, or the wall clock for a Domain made
// without Spawn.
func (d *Domain[T]) now() time.Time {
	if d.sup == nil {
		return time.Now()
	}
	return d.sup.clock.now()
}
