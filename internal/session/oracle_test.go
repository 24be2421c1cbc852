package session

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/linear"
	"repro/internal/packet"
)

// oracleImage is the flow graph in the shape the reflect engine can walk
// (exported fields only), sharing the live table's own Rc boxes: the
// reference the wire checkpoint is compared against.
type oracleImage struct {
	Flows map[uint64]*oracleFlow
}

type oracleFlow struct {
	Tuple   packet.FiveTuple
	Backend linear.Rc[Backend]
	Packets uint64
	Bytes   uint64
	Spilled bool
}

func oracleOf(t *Table) *oracleImage {
	t.mu.Lock()
	defer t.mu.Unlock()
	img := &oracleImage{Flows: make(map[uint64]*oracleFlow, t.flows.Len())}
	for h, f := range t.flowsLocked() {
		img.Flows[h] = &oracleFlow{Tuple: f.Tuple, Backend: f.Backend, Packets: f.Packets, Bytes: f.Bytes, Spilled: f.Spilled}
	}
	return img
}

// FuzzTableCheckpointOracle is the differential test of the one-pass
// checkpoint: a table built from the input (FuzzCheckpointRestore's
// generator: byte 1 picks the number of shared boxes, the rest assign
// each flow to one; here odd bytes also send the flow through the spill
// index and back, which sets Spilled) is captured both ways, and wire
// capture → Restore must equal the reflect engine's Checkpoint →
// Materialize of the same live graph, sharing included.
func FuzzTableCheckpointOracle(f *testing.F) {
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
		nBoxes := int(data[1])%7 + 1
		assign := data[2:]
		if len(assign) > 32 {
			assign = assign[:32]
		}
		src := NewTable()
		sp := newMemSpill()
		src.SetSpill(sp, 0) // unbounded RAM; the index only serves promotions
		perBackend := make(map[packet.IPv4]int)
		for i, b := range assign {
			ip := packet.IPv4(0xc0a80001 + uint32(b)%uint32(nBoxes))
			tu := flowTuple(i)
			if b%2 == 1 {
				sp.flows[tu.Hash()] = SpillRecord{Hash: tu.Hash(), Tuple: tu, Backend: ip, Packets: uint64(i), Bytes: 7}
			}
			for k := 0; k <= i%3; k++ {
				src.Track(tu, ip, 100+i)
			}
			perBackend[ip]++
		}

		snap, err := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(oracleOf(src))
		if err != nil {
			t.Fatal(err)
		}
		tok, err := src.AppendCheckpoint(nil)
		if err != nil {
			t.Fatal(err)
		}
		pristine := bytes.Clone(tok)
		src.Track(flowTuple(1000), 0xc0a80001, 1) // later mutation must not leak into either

		v, err := snap.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		want := v.(*oracleImage)
		dst := NewTable()
		if err := dst.Restore(tok); err != nil {
			t.Fatal(err)
		}

		flows := dst.flowsLocked() // dst is this goroutine's alone
		if len(flows) != len(want.Flows) {
			t.Fatalf("restored %d flows, oracle has %d", len(flows), len(want.Flows))
		}
		entries := dst.Entries()
		for h, w := range want.Flows {
			g := flows[h]
			if g == nil {
				t.Fatalf("flow %x missing after restore", h)
			}
			if g.Tuple != w.Tuple || g.Packets != w.Packets || g.Bytes != w.Bytes || g.Spilled != w.Spilled ||
				g.Backend.Get() != w.Backend.Get() {
				t.Fatalf("flow %x: restored %+v, oracle %+v", h, *g, *w)
			}
			if entries[h] != w.Backend.Get().IP {
				t.Fatalf("Entries()[%x] = %v, oracle %v", h, entries[h], w.Backend.Get().IP)
			}
		}
		// Sharing: exactly the oracle's alias structure, and each box is
		// held once by the intern map and once per flow.
		for h1, g1 := range flows {
			for h2, g2 := range flows {
				if g1.Backend.SameBox(g2.Backend) != want.Flows[h1].Backend.SameBox(want.Flows[h2].Backend) {
					t.Fatalf("flows %x,%x: sharing differs from the oracle", h1, h2)
				}
			}
			ip := g1.Backend.Get().IP
			if !dst.intern[ip].SameBox(g1.Backend) {
				t.Fatalf("flow %x does not share the interned box of %v", h1, ip)
			}
			if got, want := g1.Backend.StrongCount(), int64(perBackend[ip]+1); got != want {
				t.Fatalf("backend %v: strong count %d, want flows+1 = %d", ip, got, want)
			}
		}
		if dst.Backends() != len(perBackend) {
			t.Fatalf("restored %d backends, want %d", dst.Backends(), len(perBackend))
		}

		// Token reuse: wreck the first restore; a second restore of the
		// same token is pristine and shares nothing with the first.
		for _, g := range flows {
			g.Backend.Set(Backend{IP: 1})
			g.Packets = 0
		}
		dst2 := NewTable()
		if err := dst2.Restore(tok); err != nil {
			t.Fatal(err)
		}
		for h, w := range want.Flows {
			g := dst2.flowsLocked()[h]
			if g == nil || g.Packets != w.Packets || g.Backend.Get() != w.Backend.Get() {
				t.Fatalf("second restore of flow %x: %+v, oracle %+v", h, g, *w)
			}
			if g.Backend.SameBox(flows[h].Backend) {
				t.Fatalf("two restores of one token share a box at flow %x", h)
			}
		}
		if !bytes.Equal(tok, pristine) {
			t.Fatal("restoring wrote to the token")
		}
		restoredInvariants(t, dst2)

		// Hostile images: the token with entries named again as the
		// input picks them (one flow hash twice or more, the last entry
		// winning), and the raw input. Whatever an image restores leaves
		// the table's invariants.
		if n := len(tok[sessionHeaderSize:]) / sessionEntrySize; n > 0 {
			dup := bytes.Clone(tok)
			for _, b := range assign {
				k := int(b) % n
				dup = append(dup, tok[sessionHeaderSize+k*sessionEntrySize:sessionHeaderSize+(k+1)*sessionEntrySize]...)
			}
			binary.LittleEndian.PutUint32(dup[1:], uint32(n+len(assign)))
			dst3 := NewTable()
			if err := dst3.Restore(dup); err != nil {
				t.Fatal(err)
			}
			if dst3.Len() != n {
				t.Fatalf("an image naming %d flows restored %d", n, dst3.Len())
			}
			restoredInvariants(t, dst3)
		}
		if raw := NewTable(); raw.Restore(data) == nil {
			restoredInvariants(t, raw)
		}
	})
}
