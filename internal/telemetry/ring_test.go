package telemetry

import (
	"sync/atomic"
	"testing"
)

type cell struct{ v atomic.Uint64 }

func put(r *Ring[cell], v uint64) {
	c, pos := r.Claim()
	c.v.Store(v)
	r.Publish(pos)
}

func scan(r *Ring[cell], during func(pos uint64)) (got []uint64) {
	var v uint64
	r.Scan(func(pos uint64, c *cell) {
		v = c.v.Load()
		if during != nil {
			during(pos)
		}
	}, func() { got = append(got, v) })
	return got
}

// TestRingProtocol walks the slot protocol once for both users: a ring
// keeps the newest Cap records in order, a claimed but unpublished slot is
// invisible, and a record overwritten while a reader is loading it is
// dropped by the re-validation instead of surfacing half old, half new.
func TestRingProtocol(t *testing.T) {
	var r Ring[cell]
	if r.Len() != 0 || r.Cap() != 0 || scan(&r, nil) != nil {
		t.Fatal("the zero ring holds something")
	}
	r.Init(5) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	for v := uint64(1); v <= 11; v++ {
		put(&r, v)
	}
	if got := scan(&r, nil); len(got) != 8 || got[0] != 4 || got[7] != 11 || r.Len() != 8 {
		t.Fatalf("after 11 puts into 8 slots: %v (Len %d)", got, r.Len())
	}

	c, pos := r.Claim() // overwrites record 4, not yet published
	c.v.Store(12)
	if got := scan(&r, nil); len(got) != 7 || got[0] != 5 || got[6] != 11 {
		t.Fatalf("with a claim in flight: %v", got)
	}
	r.Publish(pos)
	if got := scan(&r, nil); len(got) != 8 || got[7] != 12 {
		t.Fatalf("after Publish: %v", got)
	}

	// A writer laps the reader's slot between its two seq loads.
	got := scan(&r, func(pos uint64) {
		if pos == 5 {
			put(&r, 13) // lands in the slot record 5 is being read from
		}
	})
	if len(got) != 7 || got[0] != 6 || got[6] != 12 {
		t.Fatalf("a record overwritten mid-read was kept: %v", got)
	}
}
