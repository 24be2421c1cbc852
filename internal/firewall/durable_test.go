package firewall

import (
	"sync"
	"testing"

	"repro/internal/packet"
)

func TestFirewallTokenRoundTrip(t *testing.T) {
	db := NewDB(Deny)
	// One rule attached under three prefixes (Figure 3a aliasing), plus
	// a prefix-local rule with transport constraints.
	shared, err := db.AddRule(0x0a000000, 8, Rule{ID: 1, Action: Allow, Comment: "allow 10/8"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(0xac100000, 12, shared); err != nil {
		t.Fatal(err)
	}
	// The DNS deny goes first in the /16 leaf (leaf rules evaluate in
	// order), the shared allow-all after it.
	if _, err := db.AddRule(0xc0a80000, 16, Rule{ID: 2, Action: Deny, Proto: 17, DstPort: 53, Comment: "no dns"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(0xc0a80000, 16, shared); err != nil {
		t.Fatal(err)
	}
	src, err := NewStateful(db)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := src.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewStateful(NewDB(Allow))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckCheckpoint(payload); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(payload); err != nil {
		t.Fatal(err)
	}
	got := dst.DB()
	if got.Default != Deny {
		t.Fatalf("default = %v, want Deny", got.Default)
	}
	// Aliasing preserved exactly: 2 distinct rules, 4 handles.
	distinct, handles := got.RuleCount()
	if distinct != 2 || handles != 4 {
		t.Fatalf("restored %d distinct/%d handles, want 2/4", distinct, handles)
	}
	// Semantics preserved.
	cases := []struct {
		tu   packet.FiveTuple
		want Action
	}{
		{packet.FiveTuple{DstIP: 0x0a010203, Proto: 6, DstPort: 80}, Allow},
		{packet.FiveTuple{DstIP: 0xac1f0001, Proto: 6, DstPort: 80}, Allow},
		{packet.FiveTuple{DstIP: 0xc0a80101, Proto: 17, DstPort: 53}, Deny},
		{packet.FiveTuple{DstIP: 0xc0a80101, Proto: 6, DstPort: 80}, Allow},
		{packet.FiveTuple{DstIP: 0x7f000001, Proto: 6, DstPort: 80}, Deny},
	}
	for i, tc := range cases {
		if act, _ := got.Match(tc.tu); act != tc.want {
			t.Fatalf("case %d: %v, want %v", i, act, tc.want)
		}
	}
}

func TestFirewallDecodeRejectsGarbage(t *testing.T) {
	s, err := NewStateful(NewDB(Allow))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckCheckpoint(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if err := s.CheckCheckpoint([]byte{0xee, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad version accepted")
	}
	payload, err := s.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(payload) - 1, 3, 7} {
		if cut >= len(payload) {
			continue
		}
		if err := s.CheckCheckpoint(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// A hostile rule count must be refused against the bytes that
	// remain, before the handle slice is sized by it.
	huge := append([]byte(nil), payload...)
	huge[2], huge[3], huge[4], huge[5] = 0xff, 0xff, 0xff, 0xff
	if err := s.CheckCheckpoint(huge); err == nil {
		t.Fatal("4G-rule count accepted by CheckCheckpoint")
	}
	if err := s.Restore(huge); err == nil {
		t.Fatal("4G-rule count accepted by Restore")
	}
}

// TestStatefulsShareOneDB: capture only reads the rule DB, so every
// worker's Stateful may wrap the same one. Workers checkpoint, restore,
// reset and classify concurrently (run under -race); each ends up with
// the configured rules, and a restore gives the restoring worker a DB of
// its own, never a view of a sibling's.
func TestStatefulsShareOneDB(t *testing.T) {
	db := NewDB(Deny)
	shared, err := db.AddRule(0x0a000000, 8, Rule{ID: 1, Action: Allow})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(0xac100000, 12, shared); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	states := make([]*Stateful, workers)
	for w := range states {
		if states[w], err = NewStateful(db); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range states {
		wg.Add(1)
		go func(s *Stateful) {
			defer wg.Done()
			tu := packet.FiveTuple{DstIP: 0x0a010203, Proto: 6, DstPort: 80}
			for i := 0; i < 200; i++ {
				tok, err := s.StreamCheckpoint(nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if act, _ := s.DB().Match(tu); act != Allow {
					t.Errorf("iteration %d: verdict %v, want allow", i, act)
					return
				}
				switch i % 3 {
				case 1:
					if err := s.Restore(tok); err != nil {
						t.Error(err)
						return
					}
				case 2:
					s.Reset()
				}
			}
		}(states[w])
	}
	wg.Wait()
	for w, s := range states {
		if s.DB() == db {
			t.Fatalf("worker %d still serves the shared boot DB after restores and resets", w)
		}
		for v := 0; v < w; v++ {
			if states[v].DB() == s.DB() {
				t.Fatalf("workers %d and %d serve one restored DB", v, w)
			}
		}
		if distinct, handles := s.DB().RuleCount(); distinct != 1 || handles != 2 {
			t.Fatalf("worker %d: %d rules/%d handles, want 1/2", w, distinct, handles)
		}
	}
}
