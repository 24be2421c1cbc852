package session

// script_test.go holds the table, with its spill index, to a plain map of
// what every flow resolves to, across scripts of tracked packets (new
// flows, hits, evictions to the index, promotions back), failing spills,
// checkpoints and restores.

import (
	"bytes"
	"testing"

	"repro/internal/packet"
)

// scriptFlow is what a flow resolves to: through the RAM table, else
// through the spill index.
type scriptFlow struct {
	ip             packet.IPv4
	packets, bytes uint64
}

// resolve reads flow h the way a tracked packet would find it.
func resolve(tbl *Table, sp *memSpill, h uint64) (scriptFlow, bool) {
	tbl.mu.Lock()
	f, ok := tbl.flowsLocked()[h]
	var got scriptFlow
	if ok {
		got = scriptFlow{f.Backend.Peek().IP, f.Packets, f.Bytes}
	}
	tbl.mu.Unlock()
	if ok {
		return got, true
	}
	r, ok := sp.flows[h]
	return scriptFlow{r.Backend, r.Packets, r.Bytes}, ok
}

// FuzzTableScript: byte 0 picks the RAM cap; each later byte is one step.
// Bytes below 0xc0 track a packet of one of 48 flows to one of three
// backends; 0xc0-0xdf switch the spill index down (odd) or up (even);
// 0xe0-0xef take a checkpoint and 0xf0-0xff restore the last one. The
// oracle is a map of flow → backend and counters: a packet continues
// what its flow resolves to, or starts it anew when the flow resolves to
// nothing (or sits in an index that is down). After every step each flow
// resolves as the map says, the backend counts hold, Moved counts the
// packets that reached a flow on another backend, and a table whose last
// spill succeeded is within its cap. A restore brings back the
// checkpoint's RAM flows, leaves the index as it is, and checkpoints to
// the same bytes it restored.
func FuzzTableScript(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2, 3})
	f.Add([]byte{2, 0, 1, 2, 3, 0xe0, 4, 5, 6, 7, 0xf0, 4, 5, 6, 7, 0, 1})
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 0xc1, 6, 7, 8, 9, 10, 11, 0xc0, 12, 13, 0, 1, 2})
	f.Add([]byte{1, 0x40, 0x41, 0x42, 0x80, 0x81, 0x82, 0xe0, 0x00, 0x01, 0x02, 0xf0, 0x40, 0x41})
	f.Add([]byte{8, 0, 48, 96, 144, 1, 49, 97, 145, 0xe0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0xc1, 0xf0, 14, 0xc0, 15, 16, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			t.Skip()
		}
		cap := int(script[0]%16) + 1
		script = script[1:]
		if len(script) > 400 {
			script = script[:400]
		}
		sp := newMemSpill()
		tbl := NewTable()
		tbl.SetSpill(sp, cap)
		view := map[uint64]scriptFlow{}
		var moved uint64
		var image []byte
		var snapshot map[uint64]scriptFlow
		for step, b := range script {
			switch {
			case b < 0xc0:
				tu := flowTuple(int(b) % 48)
				h := tu.Hash()
				ip := packet.IPv4(0xc0a80001 + uint32(b)/48%3)
				was, known := view[h]
				tbl.mu.Lock()
				resident := tbl.flows.Find(h) >= 0
				tbl.mu.Unlock()
				if known && !resident && sp.fail {
					known = false // the index is down: the flow starts anew in RAM
				}
				if !known {
					was = scriptFlow{ip: ip}
				} else if was.ip != ip {
					moved++
				}
				was.packets++
				was.bytes += uint64(b)
				view[h] = was
				tbl.Track(tu, ip, int(b))
				if !sp.fail && tbl.Len() > cap {
					t.Fatalf("step %d: %d flows resident over a cap of %d", step, tbl.Len(), cap)
				}
			case b < 0xe0:
				sp.fail = b%2 == 1
			case b < 0xf0:
				img, err := tbl.AppendCheckpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				image = img
				snapshot = map[uint64]scriptFlow{}
				for h := range tbl.Entries() {
					snapshot[h] = view[h]
				}
			case image != nil:
				if err := tbl.Restore(image); err != nil {
					t.Fatal(err)
				}
				again, err := tbl.AppendCheckpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, image) {
					t.Fatalf("step %d: a checkpoint of the restored table differs from the image it restored", step)
				}
				view = map[uint64]scriptFlow{}
				for h, r := range sp.flows {
					view[h] = scriptFlow{r.Backend, r.Packets, r.Bytes}
				}
				for h, fl := range snapshot {
					view[h] = fl
				}
			}
			for k := 0; k < 48; k++ {
				h := flowTuple(k).Hash()
				got, ok := resolve(tbl, sp, h)
				want, known := view[h]
				if ok != known || got != want {
					t.Fatalf("step %d: flow %d resolves to %+v (%v), the map says %+v (%v)", step, k, got, ok, want, known)
				}
			}
			backendCounts(t, tbl, "script")
			if tbl.Moved() != moved {
				t.Fatalf("step %d: Moved %d, %d packets reached a flow on another backend", step, tbl.Moved(), moved)
			}
		}
	})
}
