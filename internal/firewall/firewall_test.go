package firewall

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dpdk"
	"repro/internal/netbricks"
	"repro/internal/packet"
)

func tupleTo(ip packet.IPv4, port uint16, proto uint8) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.Addr(1, 1, 1, 1), DstIP: ip,
		SrcPort: 9999, DstPort: port, Proto: proto,
	}
}

// figure3DB builds the paper's Figure 3a database: rule 1 shared by two
// prefixes, rule 2 under one.
func figure3DB(t *testing.T) (*DB, SharedRule, SharedRule) {
	t.Helper()
	db := NewDB(Deny)
	rule1, err := db.AddRule(packet.Addr(10, 0, 0, 0), 16, Rule{ID: 1, Action: Allow, Comment: "rule 1"})
	if err != nil {
		t.Fatal(err)
	}
	// Second leaf pointing to the SAME rule 1.
	if err := db.AttachRule(packet.Addr(10, 5, 0, 0), 24, rule1); err != nil {
		t.Fatal(err)
	}
	rule2, err := db.AddRule(packet.Addr(192, 168, 0, 0), 16, Rule{ID: 2, Action: Allow, Comment: "rule 2"})
	if err != nil {
		t.Fatal(err)
	}
	return db, rule1, rule2
}

func TestMatchLongestPrefixAndDefault(t *testing.T) {
	db, _, _ := figure3DB(t)
	if act, r := db.Match(tupleTo(packet.Addr(10, 0, 9, 9), 80, packet.ProtoTCP)); act != Allow || r == nil || r.ID != 1 {
		t.Fatalf("10.0/16 match = %v %v", act, r)
	}
	if act, r := db.Match(tupleTo(packet.Addr(10, 5, 0, 7), 80, packet.ProtoTCP)); act != Allow || r.ID != 1 {
		t.Fatalf("10.5.0/24 match = %v %v", act, r)
	}
	if act, r := db.Match(tupleTo(packet.Addr(172, 16, 0, 1), 80, packet.ProtoTCP)); act != Deny || r != nil {
		t.Fatalf("default = %v %v", act, r)
	}
}

func TestRuleTransportConstraints(t *testing.T) {
	db := NewDB(Deny)
	if _, err := db.AddRule(packet.Addr(10, 0, 0, 0), 8, Rule{ID: 1, Action: Allow, Proto: packet.ProtoTCP, DstPort: 443}); err != nil {
		t.Fatal(err)
	}
	if act, _ := db.Match(tupleTo(packet.Addr(10, 1, 1, 1), 443, packet.ProtoTCP)); act != Allow {
		t.Fatal("matching tuple denied")
	}
	if act, _ := db.Match(tupleTo(packet.Addr(10, 1, 1, 1), 80, packet.ProtoTCP)); act != Deny {
		t.Fatal("wrong port allowed")
	}
	if act, _ := db.Match(tupleTo(packet.Addr(10, 1, 1, 1), 443, packet.ProtoUDP)); act != Deny {
		t.Fatal("wrong proto allowed")
	}
}

func TestRuleOrderInLeaf(t *testing.T) {
	db := NewDB(Deny)
	_, _ = db.AddRule(packet.Addr(10, 0, 0, 0), 8, Rule{ID: 1, Action: Deny, DstPort: 22})
	_, _ = db.AddRule(packet.Addr(10, 0, 0, 0), 8, Rule{ID: 2, Action: Allow})
	act, r := db.Match(tupleTo(packet.Addr(10, 1, 1, 1), 22, packet.ProtoTCP))
	if act != Deny || r.ID != 1 {
		t.Fatalf("first rule not preferred: %v %v", act, r)
	}
	act, r = db.Match(tupleTo(packet.Addr(10, 1, 1, 1), 80, packet.ProtoTCP))
	if act != Allow || r.ID != 2 {
		t.Fatalf("fallthrough wrong: %v %v", act, r)
	}
}

func TestAttachRejectsZeroHandle(t *testing.T) {
	db := NewDB(Deny)
	if err := db.AttachRule(0, 0, SharedRule{}); err == nil {
		t.Fatal("zero handle accepted")
	}
}

func TestRuleCountSharing(t *testing.T) {
	db, _, _ := figure3DB(t)
	distinct, handles := db.RuleCount()
	if distinct != 2 || handles != 3 {
		t.Fatalf("RuleCount = (%d, %d), want (2, 3)", distinct, handles)
	}
}

func TestFigure3RcAwareCheckpointSharesRule(t *testing.T) {
	// Figure 3 reproduced: Rc-aware checkpoint copies rule 1 exactly once
	// even though two leaves reach it.
	db, _, _ := figure3DB(t)
	snap, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Stats().RcFirst; got != 2 { // rule 1 + rule 2
		t.Fatalf("rules copied = %d, want 2", got)
	}
	if got := snap.Stats().RcReused; got != 1 { // second alias of rule 1
		t.Fatalf("aliases reused = %d, want 1", got)
	}
	restored, err := RestoreDB(snap)
	if err != nil {
		t.Fatal(err)
	}
	distinct, handles := restored.RuleCount()
	if distinct != 2 || handles != 3 {
		t.Fatalf("restored RuleCount = (%d, %d), want (2, 3) — sharing lost", distinct, handles)
	}
	// Semantics preserved.
	if act, r := restored.Match(tupleTo(packet.Addr(10, 5, 0, 1), 80, packet.ProtoTCP)); act != Allow || r.ID != 1 {
		t.Fatalf("restored match = %v %v", act, r)
	}
}

func TestFigure3bNaiveCheckpointDuplicatesRule(t *testing.T) {
	// Figure 3b reproduced: naive traversal yields rule 1' and rule 1.
	db, _, _ := figure3DB(t)
	snap, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Stats().RcFirst; got != 3 { // rule 1 twice + rule 2
		t.Fatalf("rules copied = %d, want 3 (duplication)", got)
	}
	restored, err := RestoreDB(snap)
	if err != nil {
		t.Fatal(err)
	}
	distinct, handles := restored.RuleCount()
	if distinct != 3 || handles != 3 {
		t.Fatalf("restored RuleCount = (%d, %d), want (3, 3) — duplicates expected", distinct, handles)
	}
}

func TestCheckpointIsolatesFromLiveMutation(t *testing.T) {
	db, rule1, _ := figure3DB(t)
	snap, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the live rule through its shared handle after checkpointing.
	rule1.Set(Rule{ID: 1, Action: Deny, Comment: "flipped"})
	restored, err := RestoreDB(snap)
	if err != nil {
		t.Fatal(err)
	}
	if act, _ := restored.Match(tupleTo(packet.Addr(10, 0, 1, 1), 80, packet.ProtoTCP)); act != Allow {
		t.Fatal("snapshot observed post-checkpoint mutation")
	}
	if act, _ := db.Match(tupleTo(packet.Addr(10, 0, 1, 1), 80, packet.ProtoTCP)); act != Deny {
		t.Fatal("live db lost mutation")
	}
}

func TestRestoredSharedRuleUpdatesAtomically(t *testing.T) {
	// In the restored DB, updating the shared rule through one leaf is
	// visible through the other — alias structure is behaviourally real.
	db, _, _ := figure3DB(t)
	snap, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreDB(snap)
	if err != nil {
		t.Fatal(err)
	}
	var handles []SharedRule
	restored.Rules.Walk(func(_ packet.IPv4, _ int, v *[]SharedRule) bool {
		handles = append(handles, *v...)
		return true
	})
	for _, h := range handles {
		if h.Get().ID == 1 {
			h.Set(Rule{ID: 1, Action: Deny})
			break
		}
	}
	if act, _ := restored.Match(tupleTo(packet.Addr(10, 5, 0, 1), 80, packet.ProtoTCP)); act != Deny {
		t.Fatal("update through one alias not visible through the other leaf")
	}
}

func TestOperatorDropsDenied(t *testing.T) {
	db := NewDB(Deny)
	_, _ = db.AddRule(packet.Addr(10, 99, 0, 0), 16, Rule{ID: 1, Action: Allow})
	gen := &dpdk.UniformFlows{Base: dpdk.DefaultSpec(), Flows: 8}
	port := dpdk.NewPort(dpdk.Config{PoolSize: 32, Gen: gen})
	pkts := make([]*packet.Packet, 16)
	n := port.RxBurst(pkts)
	batch := &netbricks.Batch{Pkts: pkts[:n]}
	if err := (Operator{DB: db}).ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
	// DefaultSpec dst is 10.99.0.1 → allowed; all pass.
	if len(batch.Pkts) != n {
		t.Fatalf("allowed batch len = %d, want %d", len(batch.Pkts), n)
	}
	// Now a deny-by-default DB with no rules drops everything.
	deny := NewDB(Deny)
	if err := (Operator{DB: deny}).ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Pkts) != 0 {
		t.Fatalf("deny batch len = %d, want 0", len(batch.Pkts))
	}
	port.FreeQueue(0, pkts[:n])
}

func TestOperatorDropsGarbage(t *testing.T) {
	db := NewDB(Allow)
	batch := &netbricks.Batch{Pkts: []*packet.Packet{{Data: []byte{1}}}}
	if err := (Operator{DB: db}).ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Pkts) != 0 || len(batch.Dropped) != 1 {
		t.Fatal("unparseable packet not dropped")
	}
}

func TestActionString(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Fatal("action names")
	}
}
