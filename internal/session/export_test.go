package session

import "repro/internal/packet"

// lookup resolves a flow hash to its backend, reading through the RAM
// table into the spill index without promoting.
func (t *Table) lookup(h uint64) (packet.IPv4, bool) {
	t.mu.Lock()
	if i := t.flows.Find(h); i >= 0 {
		_, f := t.flows.At(i)
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
	for _, f := range t.flowsLocked() {
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

// flowsLocked returns flow hash → the table's own Flow, for tests to
// range over and index. The pointers are into the table's entries, valid
// until its next Track, Restore or Reset. Callers hold t.mu.
func (t *Table) flowsLocked() map[uint64]*Flow {
	out := make(map[uint64]*Flow, t.flows.Len())
	for i := 0; i < t.flows.Len(); i++ {
		h, f := t.flows.At(i)
		out[h] = f
	}
	return out
}
