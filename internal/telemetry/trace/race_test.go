package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestConcurrentTracing drives the tracer the way the runtime does: one
// sampler per worker goroutine arming and completing its own spans (span
// ownership follows batch ownership — exclusive), while scrape-side
// goroutines Dump the ring and render them as JSON concurrently. Under
// -race this proves the all-atomic ring and counters are data-race-free;
// the final conservation check proves no span was lost or double-counted
// in the melee.
func TestConcurrentTracing(t *testing.T) {
	rec := telemetry.NewRecorder(256)
	tr := New(Config{SampleEvery: 4, Ring: 8, Recorder: rec})

	const workers = 4
	const packets = 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samp := tr.NewSampler()
			var sp Span
			for i := 0; i < packets; i++ {
				if !samp.MaybeArm(&sp, w) {
					continue
				}
				sp.StampAt(StageParse, tr.Now())
				sp.StampAt(StageSession, tr.Now())
				if i%3 == 0 {
					tr.Abort(&sp)
				} else {
					tr.Complete(&sp)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range tr.Dump() {
					if rec.ID == 0 {
						t.Error("dumped record with zero ID")
						return
					}
				}
				var w bytes.Buffer
				if err := tr.WriteJSON(&w); err != nil {
					t.Errorf("render under load: %v", err)
					return
				}
				var body struct {
					Enabled bool `json:"enabled"`
				}
				if err := json.Unmarshal(w.Bytes(), &body); err != nil || !body.Enabled {
					t.Errorf("render under load: err=%v enabled=%v", err, body.Enabled)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	armed, completed, aborted := tr.Counts()
	wantArmed := uint64(workers * packets / tr.SampleEvery())
	if armed != wantArmed {
		t.Errorf("armed = %d, want %d", armed, wantArmed)
	}
	if armed != completed+aborted {
		t.Errorf("conservation violated: armed %d != completed %d + aborted %d",
			armed, completed, aborted)
	}
	if completed == 0 || aborted == 0 {
		t.Errorf("want both outcomes exercised: completed=%d aborted=%d", completed, aborted)
	}
}
