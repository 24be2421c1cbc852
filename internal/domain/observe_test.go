package domain

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/linear"
	"repro/internal/mempool"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestFlightRecorderChaos drives 8 supervised domains under sustained
// fault injection with a shared registry and flight recorder attached,
// and checks the observability contract end to end:
//
//   - the recorder captures the full lifecycle — payload movement,
//     faults, backoffs, restarts, and the stop that ends a restart
//     budget;
//   - the OnExhausted hook fires with a dump when a budget runs out;
//   - the registry serves every domain's counters mid-chaos;
//   - recording never pins a linear.Owned payload: every pooled buffer
//     is back by test end (leakcheck.Pool) even though payloads crashed
//     mid-handler with recorder events in flight. The structural half of
//     that argument — the ring slot type cannot hold a pointer — is
//     leakcheck.NoPointers in package telemetry's tests.
//
// Wall time: it counts no hangs, and its fault counts are lower bounds.
func TestFlightRecorderChaos(t *testing.T) {
	pool := mempool.NewPool[[64]byte](512, nil)
	leakcheck.Pool(t, "chaos payloads", pool.Available)

	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1024)
	var mu sync.Mutex
	exhausted := make(map[string]int) // domain name -> dump length

	p := fastPolicy()
	p.MaxRestarts = 3
	p.Registry = reg
	p.Recorder = rec
	p.OnExhausted = func(name string, events []telemetry.Event) {
		mu.Lock()
		exhausted[name] = len(events)
		mu.Unlock()
	}
	s := NewSupervisor(p, sim.Wall{})
	defer s.Close()

	const (
		domains  = 8
		perDom   = 60
		failFrom = 6 // domains 0 and 1 fault on every payload from here on
	)
	doms := make([]*Domain[*[64]byte], domains)
	for i := 0; i < domains; i++ {
		i := i
		seen := 0
		d, err := Spawn(s, Config[*[64]byte]{
			Name:    fmt.Sprintf("chaos-%d", i),
			Mailbox: 4,
			Release: func(b *[64]byte) { pool.Put(b) },
			Handler: func(msg linear.Owned[*[64]byte]) error {
				seen++
				if i < 2 && seen >= failFrom {
					// Permanent failure: the streak exhausts the budget.
					// Crashing with the payload still owned exercises the
					// entry-point reclaim under recorder traffic.
					panic("chaos: permanent fault")
				}
				b, err := msg.Into()
				if err != nil {
					return err
				}
				pool.Put(b)
				if seen%7 == 0 {
					return fmt.Errorf("chaos: transient fault")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		doms[i] = d
	}

	var wg sync.WaitGroup
	for _, d := range doms {
		wg.Add(1)
		go func(d *Domain[*[64]byte]) {
			defer wg.Done()
			for n := 0; n < perDom; n++ {
				b, err := pool.Get()
				if err != nil {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				_ = d.Inbox().Send(linear.New(b)) // a failed send released b
			}
		}(d)
	}
	wg.Wait()

	waitFor(t, "budget exhaustion on both failing domains", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(exhausted) >= 2 && doms[0].State() == StateStopped && doms[1].State() == StateStopped
	})
	mu.Lock()
	for name, n := range exhausted {
		if n == 0 {
			t.Errorf("OnExhausted(%s) received an empty flight-recorder dump", name)
		}
	}
	mu.Unlock()

	// The recorder saw the whole taxonomy.
	kinds := map[telemetry.EventKind]bool{}
	for _, ev := range rec.Dump() {
		kinds[ev.Kind] = true
	}
	for _, want := range []telemetry.EventKind{
		telemetry.EvSend, telemetry.EvRecv, telemetry.EvPanic,
		telemetry.EvBackoff, telemetry.EvRestart, telemetry.EvStop,
	} {
		if !kinds[want] {
			t.Errorf("flight recorder captured no %v event", want)
		}
	}

	// The registry scrapes mid-chaos with every domain's series present.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < domains; i++ {
		series := fmt.Sprintf(`domain_processed_total{domain="chaos-%d"}`, i)
		if !strings.Contains(buf.String(), series) {
			t.Errorf("scrape is missing %s", series)
		}
	}

	// Settle: close inboxes so Close's drain has nothing racing it, then
	// let leakcheck verify the pool balanced.
	for _, d := range doms {
		d.Inbox().Close()
	}
	s.Close()
}
