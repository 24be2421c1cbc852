// Package sim is the runtime's seam onto time: Clock is the one source
// of time a supervisor reads, Wall is the real one, and Fake (fake.go) is
// a clock that moves only when a test moves it.
package sim

import "time"

// Clock is a supervisor's one source of time: the instant now, and the
// monitor's one timer.
type Clock interface {
	Now() time.Time
	// Alarm makes the monitor's one timer, stopped: the channel it fires
	// on, and set, which arms it for the instant at (read against now) or
	// stops it for a zero at. A stale fire costs the monitor one scan.
	Alarm() (fired <-chan time.Time, set func(at, now time.Time))
}

// Wall is the real clock: package time's.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Alarm implements Clock over one stopped time.Timer.
func (Wall) Alarm() (<-chan time.Time, func(at, now time.Time)) {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t.C, func(at, now time.Time) {
		if t.Stop(); !at.IsZero() {
			t.Reset(at.Sub(now))
		}
	}
}
