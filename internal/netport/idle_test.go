package netport

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/packet"
)

// idlePort builds a small socketless port, closed at cleanup.
func idlePort(t *testing.T, cfg Config) *Port {
	t.Helper()
	p, err := newPort(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestIdlePollAllocatesNothing: an idle RxBurstQueue poll reuses the
// queue's timer whether it expires or is woken by the receive loop.
func TestIdlePollAllocatesNothing(t *testing.T) {
	out := make([]*packet.Packet, 4)

	expiring := idlePort(t, Config{Queues: 1, RingSize: 16, CacheSize: 4,
		PollWait: 20 * time.Microsecond})
	if avg := testing.AllocsPerRun(200, func() {
		if n := expiring.RxBurstQueue(0, out); n != 0 {
			t.Fatalf("idle poll returned %d packets", n)
		}
	}); avg != 0 {
		t.Errorf("expiring idle poll: %v allocs/op, want 0", avg)
	}

	woken := idlePort(t, Config{Queues: 1, RingSize: 16, CacheSize: 4,
		PollWait: time.Hour})
	rq := woken.queues[0]
	if avg := testing.AllocsPerRun(200, func() {
		rq.ready <- struct{}{} // a wakeup whose burst another poll already took
		if n := woken.RxBurstQueue(0, out); n != 0 {
			t.Fatalf("idle poll returned %d packets", n)
		}
	}); avg != 0 {
		t.Errorf("woken idle poll: %v allocs/op, want 0", avg)
	}
}

// TestIdleTimerLeavesNoStaleTick (regression for reusing the timer): a
// poll woken by ready just as its timer fires must take the tick with
// it. Left in the channel, the tick would end the next idle poll at
// once, and a runner counting empty polls as end-of-traffic would give
// up early. The window — ready wins the select, the timer fires before
// Stop — is a few microseconds of scheduling latency wide, so each round
// aims a wakeup at the expiry instant, sweeping the aim across that
// latency, and then requires a quiet poll to last its whole PollWait.
func TestIdleTimerLeavesNoStaleTick(t *testing.T) {
	const wait = 200 * time.Microsecond
	p := idlePort(t, Config{Queues: 1, RingSize: 16, CacheSize: 4, PollWait: wait})
	rq := p.queues[0]
	out := make([]*packet.Packet, 4)

	for round := 0; round < 480; round++ {
		aim := wait - 30*time.Microsecond + time.Duration(round%60)*time.Microsecond
		start := time.Now()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for time.Since(start) < aim {
				runtime.Gosched()
			}
			select {
			case rq.ready <- struct{}{}:
			default:
			}
		}()
		p.RxBurstQueue(0, out)
		<-sent
		select {
		case <-rq.ready: // the timer won; discard the late wakeup
		default:
		}

		start = time.Now()
		p.RxBurstQueue(0, out)
		if elapsed := time.Since(start); elapsed < wait {
			t.Fatalf("round %d: quiet idle poll returned after %v, before PollWait %v: a stale timer tick survived the poll before it",
				round, elapsed, wait)
		}
	}
}
