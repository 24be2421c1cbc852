package firewall

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/linear"
	"repro/internal/packet"
)

// leafHandles flattens a DB to its handle lists in trie-walk order: the
// evaluation order Match sees.
func leafHandles(db *DB) (prefixes []packet.IPv4, lengths []int, handles [][]SharedRule) {
	db.Rules.Walk(func(ip packet.IPv4, length int, v *[]SharedRule) bool {
		prefixes = append(prefixes, ip)
		lengths = append(lengths, length)
		handles = append(handles, *v)
		return true
	})
	return prefixes, lengths, handles
}

// FuzzStatefulCheckpointOracle: a rule DB built from the input
// (FuzzCheckpointRestore's generator — byte 1 picks the number of shared
// rules, each further byte attaches one of them under a prefix derived
// from the byte, so one rule lands under many prefixes and prefixes
// collect several rules) goes through firewall.Stateful's wire
// checkpoint and through the reflect engine; the two restored DBs must
// agree on default, prefixes, per-leaf rule order, verdicts and on which
// handles share a box.
func FuzzStatefulCheckpointOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 1, 0})
	f.Add([]byte{1, 2, 0, 0, 0})
	f.Add([]byte{2, 5, 4, 3, 2, 1, 0, 1, 2})
	f.Add([]byte{0, 1, 9})
	f.Add([]byte{2, 7, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		db := NewDB(Action(data[0] % 2))
		rules := make([]SharedRule, int(data[1])%7+1)
		for i := range rules {
			rules[i] = linear.NewRc(Rule{
				ID: i - 3, Action: Action(i % 2), Proto: uint8(6 + 11*(i%2)), DstPort: uint16(53 * (i % 3)),
				Comment: "rule-" + string(rune('a'+i)),
			})
		}
		assign := data[2:]
		if len(assign) > 32 {
			assign = assign[:32]
		}
		for i, b := range assign {
			length := 8 + 8*(i%3)
			ip := packet.IPv4(uint32(10+b%4)<<24 | uint32(b>>4)<<16)
			if err := db.AttachRule(ip, length, rules[int(b)%len(rules)]); err != nil {
				t.Fatal(err)
			}
		}

		snap, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
		if err != nil {
			t.Fatal(err)
		}
		want, err := RestoreDB(snap)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewStateful(db)
		if err != nil {
			t.Fatal(err)
		}
		tok, err := src.StreamCheckpoint(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pristine := bytes.Clone(tok)
		dst, err := NewStateful(NewDB(Allow))
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(tok); err != nil {
			t.Fatal(err)
		}
		got := dst.DB()

		if got.Default != want.Default {
			t.Fatalf("default %v, oracle %v", got.Default, want.Default)
		}
		gp, gl, gh := leafHandles(got)
		wp, wl, wh := leafHandles(want)
		if len(gp) != len(wp) {
			t.Fatalf("%d prefixes, oracle %d", len(gp), len(wp))
		}
		var gAll, wAll []SharedRule
		for i := range wp {
			if gp[i] != wp[i] || gl[i] != wl[i] || len(gh[i]) != len(wh[i]) {
				t.Fatalf("leaf %d: %v/%d with %d rules, oracle %v/%d with %d", i, gp[i], gl[i], len(gh[i]), wp[i], wl[i], len(wh[i]))
			}
			for j := range wh[i] {
				if gh[i][j].Get() != wh[i][j].Get() {
					t.Fatalf("leaf %d rule %d: %+v, oracle %+v (evaluation order)", i, j, gh[i][j].Get(), wh[i][j].Get())
				}
			}
			gAll = append(gAll, gh[i]...)
			wAll = append(wAll, wh[i]...)
		}
		// One rule under many prefixes is one box, exactly as in the oracle.
		for i := range wAll {
			for j := range wAll {
				if gAll[i].SameBox(gAll[j]) != wAll[i].SameBox(wAll[j]) {
					t.Fatalf("handles %d,%d: sharing differs from the oracle", i, j)
				}
			}
		}
		for b := 0; b < 256; b += 5 {
			tu := packet.FiveTuple{
				DstIP: packet.IPv4(uint32(10+b%4)<<24 | uint32(b>>4)<<16 | 0x0101),
				Proto: uint8(6 + 11*(b%2)), DstPort: uint16(53 * (b % 3)),
			}
			ga, gr := got.Match(tu)
			wa, wr := want.Match(tu)
			if ga != wa || (gr == nil) != (wr == nil) || (gr != nil && *gr != *wr) {
				t.Fatalf("Match(%+v) = %v %+v, oracle %v %+v", tu, ga, gr, wa, wr)
			}
		}

		// An unchanged rule set is flattened once: later epochs copy the
		// cached image, each into a token of its own. The restored side's
		// image is the token's bytes in a buffer of its own, so it neither
		// pins an epoch buffer nor reads one the state may write again.
		first, _ := src.wire()
		again, _ := src.wire()
		if &again[0] != &first[0] {
			t.Fatal("second epoch of an unchanged DB re-encoded it")
		}
		if next, _ := src.StreamCheckpoint(nil, nil); &next[0] == &tok[0] || !bytes.Equal(next, pristine) {
			t.Fatal("a second checkpoint must be the same bytes in a token of its own")
		}
		dtok, _ := dst.StreamCheckpoint(nil, nil)
		if !bytes.Equal(dtok, pristine) {
			t.Fatal("checkpoint after restore differs from the token it was restored from")
		}
		if cached, _ := dst.wire(); &cached[0] == &tok[0] {
			t.Fatal("the restored side caches the token's own buffer")
		}
		// Token reuse: a second restore builds a DB sharing nothing with
		// the first, and the token is untouched.
		dst2, _ := NewStateful(NewDB(Allow))
		if err := dst2.Restore(tok); err != nil {
			t.Fatal(err)
		}
		_, _, h2 := leafHandles(dst2.DB())
		for i := range h2 {
			for j := range h2[i] {
				if h2[i][j].SameBox(gh[i][j]) {
					t.Fatalf("two restores of one token share a rule box at leaf %d", i)
				}
			}
		}
		if !bytes.Equal(tok, pristine) {
			t.Fatal("restoring wrote to the token")
		}
	})
}
