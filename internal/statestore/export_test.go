package statestore

import (
	"math"
	"sort"
)

// names returns the domains with a durable epoch, sorted.
func (s *Store) names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.epochs))
	for name := range s.epochs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetCompactAfter fixes the WAL size (bytes) past which an append
// compacts into base.db, in place of the adaptive threshold; negative
// never compacts. It returns s; call it before s is shared.
func (s *Store) SetCompactAfter(n int64) *Store {
	if n < 0 {
		n = math.MaxInt64
	}
	s.compactMin, s.compactMax = n, n
	return s
}

// SetFlowCompactAfter sets the overlay entry count past which a spill
// batch merges a flow index; negative never merges. It returns s; call
// it before s is shared.
func (s *Store) SetFlowCompactAfter(n int) *Store {
	if n < 0 {
		n = math.MaxInt
	}
	s.flowCompactAfter = n
	return s
}
