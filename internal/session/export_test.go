package session

import "repro/internal/packet"

// lookup resolves a flow hash to its backend, reading through the RAM
// table into the spill index without promoting.
func (t *Table) lookup(h uint64) (packet.IPv4, bool) {
	t.mu.Lock()
	if f, ok := t.flows[h]; ok {
		ip := f.Backend.Peek().IP
		t.mu.Unlock()
		return ip, true
	}
	sp := t.spill
	t.mu.Unlock()
	if sp == nil {
		return 0, false
	}
	rec, ok, err := sp.LookupFlow(h)
	if err != nil || !ok {
		return 0, false
	}
	return rec.Backend, true
}

// totalFlows reports the distinct flow population across RAM and the
// spill index: index flows plus RAM flows the index has never seen
// (promoted flows stay counted on the index side). Soft after a crash:
// flows tracked after the last durable epoch and never evicted are
// RAM-only and die with the process.
func (t *Table) totalFlows() (int, error) {
	t.mu.Lock()
	ramOnly := 0
	for _, f := range t.flows {
		if !f.Spilled {
			ramOnly++
		}
	}
	sp := t.spill
	t.mu.Unlock()
	if sp == nil {
		return ramOnly, nil
	}
	n, err := sp.FlowCount()
	if err != nil {
		return ramOnly, err
	}
	return ramOnly + n, nil
}
