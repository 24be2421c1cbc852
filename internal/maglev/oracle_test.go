package maglev

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/packet"
)

// oracleState is the balancer's state in the shape the reflect engine
// walks: the reference the wire checkpoint is compared against.
type oracleState struct {
	Conns  map[uint64]Backend
	Hits   uint64
	Misses uint64
}

// FuzzBalancerCheckpointOracle: a balancer driven by the input
// (FuzzCheckpointRestore's generator — byte 1 sizes the backend set, the
// rest pick flows, repeats being connection-table hits) is captured both
// ways; wire capture → Restore must equal the reflect engine's
// Checkpoint → Materialize of the same live map and counters.
func FuzzBalancerCheckpointOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 1, 0})
	f.Add([]byte{1, 2, 0, 0, 0})
	f.Add([]byte{2, 5, 4, 3, 2, 1, 0, 1, 2})
	f.Add([]byte{0, 1, 9})
	f.Add([]byte{2, 7, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		backends := make([]Backend, int(data[1])%7+1)
		for i := range backends {
			backends[i] = Backend{Name: string(rune('a'+i)) + "-backend", IP: packet.IPv4(0x0a630001 + uint32(i))}
		}
		picks := data[2:]
		if len(picks) > 32 {
			picks = picks[:32]
		}
		src, err := NewBalancer(backends, 127)
		if err != nil {
			t.Fatal(err)
		}
		tuple := func(b byte) packet.FiveTuple {
			return packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(b)), DstIP: 0x0a630000, SrcPort: 1000 + uint16(b), DstPort: 80, Proto: 17}
		}
		for _, b := range picks {
			src.Pick(tuple(b))
		}

		snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(
			&oracleState{Conns: src.connsView(), Hits: src.hits, Misses: src.misses})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := src.CheckpointSize(), balancerHeaderSize+src.connBytes; got != want {
			t.Fatalf("CheckpointSize %d, want %d", got, want)
		}
		tok, err := src.StreamCheckpoint(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(tok) != src.CheckpointSize() {
			t.Fatalf("token is %d bytes, CheckpointSize said %d", len(tok), src.CheckpointSize())
		}
		pristine := bytes.Clone(tok)
		src.Pick(tuple(255)) // later mutation must not leak into either
		src.Pick(tuple(255))

		v, err := snap.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		want := v.(*oracleState)
		dst, err := NewBalancer(backends, 127)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(tok); err != nil {
			t.Fatal(err)
		}
		if dst.hits != want.Hits || dst.misses != want.Misses || dst.ConnCount() != len(want.Conns) {
			t.Fatalf("restored %d conns %d/%d, oracle %d conns %d/%d",
				dst.ConnCount(), dst.hits, dst.misses, len(want.Conns), want.Hits, want.Misses)
		}
		got := dst.connsView()
		for h, be := range want.Conns {
			if got[h] != be {
				t.Fatalf("conn %x → %+v, oracle %+v", h, got[h], be)
			}
		}
		if dst.connBytes != len(pristine)-balancerHeaderSize {
			t.Fatalf("restored connBytes %d, want %d", dst.connBytes, len(pristine)-balancerHeaderSize)
		}

		// Token reuse: the first restore's later picks stay out of a
		// second restore of the same token, and the token is untouched.
		dst.Pick(tuple(254))
		dst2, _ := NewBalancer(backends, 127)
		if err := dst2.Restore(tok); err != nil {
			t.Fatal(err)
		}
		if dst2.ConnCount() != len(want.Conns) || dst2.misses != want.Misses {
			t.Fatalf("second restore: %d conns, %d misses; oracle %d, %d", dst2.ConnCount(), dst2.misses, len(want.Conns), want.Misses)
		}
		if !bytes.Equal(tok, pristine) {
			t.Fatal("restoring wrote to the token")
		}
		restoredInvariants(t, dst2)

		// Hostile images: the token with connections named again as the
		// input picks them (one flow hash twice or more, the last entry
		// winning), and the raw input. Whatever an image restores leaves
		// CheckpointSize equal to the bytes a checkpoint writes.
		_, _, n, body, _ := tokenHeader(tok)
		if n > 0 {
			var entries [][]byte
			_ = walkConns(body, n, func(h uint64, ip packet.IPv4, name []byte) {
				e := binary.LittleEndian.AppendUint64(nil, h)
				e = binary.LittleEndian.AppendUint32(e, uint32(ip))
				e = binary.LittleEndian.AppendUint16(e, uint16(len(name)))
				entries = append(entries, append(e, name...))
			})
			dup := bytes.Clone(tok)
			for _, b := range picks {
				dup = append(dup, entries[int(b)%n]...)
			}
			binary.LittleEndian.PutUint32(dup[17:], uint32(n+len(picks)))
			dst3, _ := NewBalancer(backends, 127)
			if err := dst3.Restore(dup); err != nil {
				t.Fatal(err)
			}
			if dst3.ConnCount() != n {
				t.Fatalf("an image naming %d conns restored %d", n, dst3.ConnCount())
			}
			restoredInvariants(t, dst3)
		}
		if raw, _ := NewBalancer(backends, 127); raw.Restore(data) == nil {
			restoredInvariants(t, raw)
		}
	})
}
