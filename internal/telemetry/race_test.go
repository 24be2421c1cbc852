package telemetry

import (
	"io"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRegistrationVsRecord hammers the record path from many
// goroutines while the registry concurrently registers, scrapes, and
// unregisters the very cells being written — the registration-vs-record
// race the design claims is impossible (writers never touch the
// registry). Run under -race via the Makefile race tier.
func TestConcurrentRegistrationVsRecord(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(256)
	const writers = 8
	var cs [writers]Counter
	var hs [writers]Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			actor := rec.Actor("writer")
			for {
				cs[w].Add(1)
				hs[w].Observe(time.Microsecond)
				rec.Record(actor, EvSend, uint64(w))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}

	// Registration churn + scrapes + dumps race against the writers.
	labels := []Labels{nil, {"w": "0"}, {"w": "1"}}
	for i := 0; i < 200; i++ {
		w := i % writers
		reg.RegisterCounter("churn_total", labels[i%len(labels)], &cs[w])
		reg.RegisterHistogram("churn_seconds", labels[i%len(labels)], &hs[w])
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		_ = reg.Snapshot()
		_ = rec.Dump()
	}
	close(stop)
	wg.Wait()

	var total uint64
	for w := range cs {
		total += cs[w].Load()
	}
	if total == 0 {
		t.Fatal("writers recorded nothing")
	}
	if len(rec.Dump()) == 0 {
		t.Fatal("recorder dumped nothing after concurrent records")
	}
}
