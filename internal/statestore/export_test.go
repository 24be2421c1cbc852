package statestore

import "sort"

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
