// Package firewall implements the paper's §5 case study: a network
// firewall whose rules are indexed by a trie for fast lookup based on
// packet headers, with multiple trie leaves pointing to the same rule
// (Figure 3a).
//
// Rules are held through checkpoint.Rc, making the sharing explicit in
// the type — which is exactly what lets the checkpoint engine snapshot
// the database without duplicating shared rules (Figure 3b is reproduced
// by checkpointing the same database with a Naive engine).
package firewall

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/linear"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/trie"
)

// Action is a rule verdict.
type Action int

const (
	// Deny drops the packet.
	Deny Action = iota
	// Allow forwards the packet.
	Allow
)

// String names the action.
func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Rule is one firewall rule. Port 0 and Proto 0 are wildcards.
type Rule struct {
	ID      int
	Action  Action
	Proto   uint8
	DstPort uint16
	Comment string
}

// Matches reports whether the rule's transport constraints admit t.
func (r Rule) Matches(t packet.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != t.Proto {
		return false
	}
	if r.DstPort != 0 && r.DstPort != t.DstPort {
		return false
	}
	return true
}

// SharedRule is a reference-counted rule handle; cloning it and inserting
// under several prefixes creates the Figure 3a sharing.
type SharedRule = linear.Rc[Rule]

// DB is the rule database: a destination-prefix trie whose leaves hold
// lists of shared rule handles, evaluated in order. All fields are
// exported so the checkpoint engine can derive traversal.
type DB struct {
	Rules   *trie.Trie[[]SharedRule]
	Default Action
}

// NewDB creates an empty database with the given default action.
func NewDB(def Action) *DB {
	return &DB{Rules: trie.New[[]SharedRule](), Default: def}
}

// AddRule inserts a fresh rule under the destination prefix and returns
// the shared handle so callers can attach the same rule elsewhere.
func (db *DB) AddRule(dst packet.IPv4, length int, r Rule) (SharedRule, error) {
	h := linear.NewRc(r)
	if err := db.AttachRule(dst, length, h); err != nil {
		return SharedRule{}, err
	}
	return h, nil
}

// AttachRule attaches an existing shared rule under an additional prefix —
// this is how "multiple leaves of the trie point to the same rule".
func (db *DB) AttachRule(dst packet.IPv4, length int, h SharedRule) error {
	if h.IsZero() {
		return errors.New("firewall: zero rule handle")
	}
	existing, _ := db.Rules.Exact(dst, length)
	return db.Rules.Insert(dst, length, append(existing, h.Clone()))
}

// Match classifies a tuple: longest-prefix match on the destination
// address, then first rule in the leaf whose transport constraints match.
// Falls back to the default action. The returned rule pointer aims into
// the shared Rc box (rules are immutable once attached), so the per-packet
// path stays allocation-free; callers must not write through it.
func (db *DB) Match(t packet.FiveTuple) (Action, *Rule) {
	rules, ok := db.Rules.Lookup(t.DstIP)
	if ok {
		for _, h := range rules {
			r := h.Peek()
			if r.Matches(t) {
				return r.Action, r
			}
		}
	}
	return db.Default, nil
}

// RuleCount reports the number of distinct shared rules reachable from
// the trie (counting aliased rules once), and the total number of handles.
func (db *DB) RuleCount() (distinct, handles int) {
	var all []SharedRule
	db.Rules.Walk(func(_ packet.IPv4, _ int, v *[]SharedRule) bool {
		all = append(all, *v...)
		return true
	})
	handles = len(all)
	for i, h := range all {
		dup := false
		for j := 0; j < i; j++ {
			if h.SameBox(all[j]) {
				dup = true
				break
			}
		}
		if !dup {
			distinct++
		}
	}
	return distinct, handles
}

// Checkpoint snapshots the database with the given engine.
func (db *DB) Checkpoint(e *checkpoint.Engine) (*checkpoint.Snapshot, error) {
	return e.Checkpoint(db)
}

// RestoreDB materializes a database from a snapshot taken of a *DB.
func RestoreDB(s *checkpoint.Snapshot) (*DB, error) {
	var out *DB
	if err := s.Restore(&out); err != nil {
		return nil, fmt.Errorf("firewall: %w", err)
	}
	return out, nil
}

// Operator adapts the firewall into a NetBricks stage that drops denied
// packets.
type Operator struct {
	DB *DB
}

// Name implements netbricks.Operator.
func (Operator) Name() string { return "firewall" }

// ProcessBatch implements netbricks.Operator.
func (o Operator) ProcessBatch(b *netbricks.Batch) error {
	for i := 0; i < len(b.Pkts); {
		p := b.Pkts[i]
		if !p.Parsed() {
			if err := p.Parse(); err != nil {
				b.Drop(i)
				continue
			}
		}
		if act, _ := o.DB.Match(p.Tuple()); act == Deny {
			b.Drop(i)
			continue
		}
		i++
	}
	return nil
}

var _ netbricks.Operator = Operator{}
