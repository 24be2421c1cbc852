package netbricks

import "repro/internal/packet"

// Filter drops packets failing a predicate.
type Filter struct {
	Label string
	Pred  func(*packet.Packet) bool
}

// Name implements Operator.
func (f Filter) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "filter"
}

// ProcessBatch implements Operator.
func (f Filter) ProcessBatch(b *Batch) error {
	for i := 0; i < len(b.Pkts); {
		if !f.Pred(b.Pkts[i]) {
			b.Drop(i)
			continue
		}
		i++
	}
	return nil
}

// Transform applies fn to every packet.
type Transform struct {
	Label string
	Fn    func(*packet.Packet) error
}

// Name implements Operator.
func (t Transform) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return "transform"
}

// ProcessBatch implements Operator.
func (t Transform) ProcessBatch(b *Batch) error {
	for _, p := range b.Pkts {
		if err := t.Fn(p); err != nil {
			return err
		}
	}
	return nil
}
