package statestore

import (
	"fmt"
	"testing"
)

// persistGenerations writes gens whole-state generations (one epoch per
// domain per generation, payloadBytes each) and reports the compaction
// count afterwards.
func persistGenerations(t *testing.T, s *Store, domains, gens, payloadBytes int) uint64 {
	t.Helper()
	payload := make([]byte, payloadBytes)
	seq := uint64(0)
	for g := 0; g < gens; g++ {
		seq++
		for d := 0; d < domains; d++ {
			name := fmt.Sprintf("worker-%d", d)
			if err := s.PersistEpoch(name, seq, payload); err != nil {
				t.Fatalf("PersistEpoch(%s, %d): %v", name, seq, err)
			}
		}
	}
	return s.StatsSnapshot().Compactions
}

// TestAdaptiveCompactionCadence pins the fix for the fixed 8 MiB WAL
// compaction trigger: with the adaptive threshold, the cadence is
// a constant number of whole-state generations regardless of how many
// domains share the store — a 32-domain run must not compact 32× as
// often (in generations) as a single-domain run, and a single small
// domain must not wait multi-megabytes of WAL for its first compaction.
func TestAdaptiveCompactionCadence(t *testing.T) {
	const (
		gens    = 200
		payload = 4096
	)
	cadence := func(domains int) float64 {
		s := openT(t, t.TempDir(), Config{Fsync: FsyncNone})
		c := persistGenerations(t, s, domains, gens, payload)
		if c == 0 {
			t.Fatalf("%d domains: no compaction in %d generations", domains, gens)
		}
		return float64(gens) / float64(c)
	}
	one := cadence(1)
	many := cadence(32)

	// Both runs should compact about every autoCompactGenerations
	// whole-state generations (the clamp floor nudges the 1-domain run a
	// little later; overheads nudge both a little earlier).
	for _, tc := range []struct {
		domains int
		got     float64
	}{{1, one}, {32, many}} {
		if tc.got < autoCompactGenerations/2 || tc.got > autoCompactGenerations*2 {
			t.Errorf("%d domains: compaction every %.1f generations, want ~%d",
				tc.domains, tc.got, autoCompactGenerations)
		}
	}
	// And the cadences must agree with each other in generations — the
	// property the fixed byte threshold broke by a factor of the domain
	// count.
	if ratio := many / one; ratio < 0.5 || ratio > 2 {
		t.Errorf("cadence skew 32-domain/1-domain = %.2f, want ~1", ratio)
	}
}

// TestAdaptiveCompactionSmallDomain pins the other half of the fix: a
// single domain writing small epochs used to sit under the fixed 8 MiB
// trigger essentially forever (hundreds of thousands of epochs of WAL
// replay at reopen). The same workload under an explicit 8 MiB threshold
// must show zero compactions where adaptive mode shows several.
func TestAdaptiveCompactionSmallDomain(t *testing.T) {
	const (
		gens    = 200
		payload = 4096
	)
	fixed := openT(t, t.TempDir(), Config{Fsync: FsyncNone}).SetCompactAfter(8 << 20)
	if c := persistGenerations(t, fixed, 1, gens, payload); c != 0 {
		t.Fatalf("fixed 8 MiB threshold compacted %d times in %d small epochs", c, gens)
	}
	auto := openT(t, t.TempDir(), Config{Fsync: FsyncNone})
	if c := persistGenerations(t, auto, 1, gens, payload); c < 2 {
		t.Fatalf("adaptive threshold compacted %d times in %d small epochs, want >= 2", c, gens)
	}
}
