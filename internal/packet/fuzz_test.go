package packet

import (
	"testing"
)

// FuzzParse asserts the packet parser is total over arbitrary bytes: any
// input is either parsed or rejected, with no panics and no reads out of
// bounds (the datapath-facing robustness property).
func FuzzParse(f *testing.F) {
	good, _ := Build(nil, BuildSpec{
		Tuple:      FiveTuple{SrcIP: Addr(1, 2, 3, 4), DstIP: Addr(5, 6, 7, 8), SrcPort: 1, DstPort: 2, Proto: ProtoTCP},
		PayloadLen: 16,
	})
	udp, _ := Build(nil, BuildSpec{
		Tuple: FiveTuple{Proto: ProtoUDP}, PayloadLen: 0,
	})
	f.Add(good)
	f.Add(udp)
	f.Add([]byte{})
	f.Add(make([]byte, 14))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Packet{Data: data}
		if err := p.Parse(); err != nil {
			if p.Parsed() {
				t.Fatal("Parsed true after error")
			}
			return
		}
		// Parsed packets must expose consistent views.
		_ = p.Tuple()
		_ = p.VerifyIPChecksum()
		// Mutators must stay in bounds.
		p.SetDstIP(Addr(9, 9, 9, 9))
	})
}

// FuzzParsePacket is the datapath parser fuzz target for the race-
// hardened tier: beyond totality (no panics, no out-of-bounds reads) it
// checks metamorphic properties a correct parser must satisfy on every
// input — determinism, bounds on the views it exposes, and checksum
// coherence after header rewrites. The seed corpus under
// testdata/fuzz/FuzzParsePacket covers truncated headers at every layer
// and adversarial length fields (IHL, total length, TCP data offset).
func FuzzParsePacket(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Packet{Data: data}
		err := p.Parse()

		// Determinism: parsing an identical buffer yields an identical
		// verdict and identical views.
		q := &Packet{Data: append([]byte(nil), data...)}
		errQ := q.Parse()
		if (err == nil) != (errQ == nil) {
			t.Fatalf("parse not deterministic: %v vs %v", err, errQ)
		}
		if err != nil {
			if p.Parsed() {
				t.Fatal("Parsed true after error")
			}
			return
		}
		if p.Tuple() != q.Tuple() {
			t.Fatalf("tuples differ on identical input: %v vs %v", p.Tuple(), q.Tuple())
		}

		// Exposed views stay inside the frame.
		if p.l4Off > len(data) {
			t.Fatalf("transport header at %d in a %d-byte frame", p.l4Off, len(data))
		}
		if p.RSSHash() != q.RSSHash() {
			t.Fatal("RSS hash not deterministic")
		}

		// Rewriting the destination recomputes a valid checksum and
		// keeps the packet parsable with the new address in the tuple.
		p.SetDstIP(Addr(203, 0, 113, 9))
		if !p.VerifyIPChecksum() {
			t.Fatal("checksum invalid after SetDstIP")
		}
		r := &Packet{Data: append([]byte(nil), p.Data...)}
		if err := r.Parse(); err != nil {
			t.Fatalf("reparse after SetDstIP: %v", err)
		}
		if r.Tuple().DstIP != Addr(203, 0, 113, 9) {
			t.Fatalf("DstIP = %v after rewrite", r.Tuple().DstIP)
		}
	})
}
