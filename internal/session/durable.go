package session

// durable.go is the table's checkpoint: the v1 wire image is the only
// checkpointed representation. Capture appends one fixed-size entry per
// live flow straight from the flow table, in its ring order, under the
// table lock, into the buffer a domain.StateSet sizes for every part; the
// same bytes go to the WAL. Restore decodes the bytes back into the
// table's own entries, in the image's order, sharing one Rc box per
// distinct backend — Figure 3a's aliasing survives by construction, and
// an image restores any number of times because Restore only reads it.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/packet"
)

// sessionTokenVersion guards the session token wire format.
const sessionTokenVersion = 1

// Token layout: u8 version, u32 flow count, then per flow: u64 hash,
// u32 src, u32 dst, u16 sport, u16 dport, u8 proto, u8 spilled, u32
// backend, u64 packets, u64 bytes.
const (
	sessionHeaderSize = 1 + 4
	sessionEntrySize  = 8 + 4 + 4 + 2 + 2 + 1 + 1 + 4 + 8 + 8
)

// CheckpointSize reports the bytes AppendCheckpoint would write now.
func (t *Table) CheckpointSize() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return sessionHeaderSize + t.flows.Len()*sessionEntrySize
}

// AppendCheckpoint appends the table's wire image to buf, reading the
// live flows under the table lock. The hot bit is derived state and
// stays out.
func (t *Table) AppendCheckpoint(buf []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.flows.Len()
	buf = slices.Grow(buf, sessionHeaderSize+n*sessionEntrySize)
	buf = append(buf, sessionTokenVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		h, f := t.flows.At(i)
		off := len(buf)
		buf = buf[:off+sessionEntrySize]
		e := buf[off:]
		binary.LittleEndian.PutUint64(e, h)
		binary.LittleEndian.PutUint32(e[8:], uint32(f.Tuple.SrcIP))
		binary.LittleEndian.PutUint32(e[12:], uint32(f.Tuple.DstIP))
		binary.LittleEndian.PutUint16(e[16:], f.Tuple.SrcPort)
		binary.LittleEndian.PutUint16(e[18:], f.Tuple.DstPort)
		e[20] = f.Tuple.Proto
		e[21] = 0
		if f.Spilled {
			e[21] = 1
		}
		var ip packet.IPv4
		if !f.Backend.IsZero() {
			ip = f.Backend.Peek().IP
		}
		binary.LittleEndian.PutUint32(e[22:], uint32(ip))
		binary.LittleEndian.PutUint64(e[26:], f.Packets)
		binary.LittleEndian.PutUint64(e[34:], f.Bytes)
	}
	return buf, nil
}

// CheckCheckpoint validates a wire image's header and length, the whole
// of what Restore checks, without touching the table.
func (t *Table) CheckCheckpoint(data []byte) error {
	_, err := checkToken(data)
	return err
}

// checkToken validates a wire image's header and length and returns the
// flow count.
func checkToken(data []byte) (int, error) {
	if len(data) < sessionHeaderSize || data[0] != sessionTokenVersion {
		return 0, fmt.Errorf("session: bad token header")
	}
	n := int(binary.LittleEndian.Uint32(data[1:]))
	if body := len(data) - sessionHeaderSize; body%sessionEntrySize != 0 || body/sessionEntrySize != n {
		return 0, fmt.Errorf("session: token has %d bytes after the header, want %d for %d flows", body, n*sessionEntrySize, n)
	}
	return n, nil
}

// Restore replaces the live table with the flow graph a wire image
// describes, in place: the image is checked whole first (a bad one leaves
// the table as it was), then under the table lock every live flow's
// backend handle is released, the flow table is emptied, keeping its
// memory, and refilled in the image's order with the hand parked — one
// shared Rc box per distinct backend (each flow holds a clone, the intern
// map the original). An image that names a flow hash twice restores one
// flow, the last entry's, and the clone the first one took is dropped.
// The interned boxes are reused: a box the image names again only gains
// its flows' clones back, so StrongCount is again flows + 1, and a box it
// no longer names is dropped. A restart thus allocates a box only for a
// backend the table has not interned, not a graph per restore. The image
// is only read, so a later fault can restore from the same epoch again.
func (t *Table) Restore(data []byte) error {
	n, err := checkToken(data)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Every strong handle on an interned box but the map's own is a
	// resident flow's clone, and every flow is forgotten here: release
	// them at once, so each box is the map's alone before the image's
	// flows clone it again.
	for _, rc := range t.intern {
		_ = rc.DropN(rc.StrongCount() - 1)
	}
	t.flows.Reset()
	for k := 0; k < n; k++ {
		e := data[sessionHeaderSize+k*sessionEntrySize:]
		h := binary.LittleEndian.Uint64(e)
		i := t.flows.Find(h)
		if i < 0 {
			i = t.flows.Add(h)
		}
		_, f := t.flows.At(i)
		if !f.Backend.IsZero() {
			_ = f.Backend.Drop() // named before: the last entry wins
		}
		*f = Flow{
			Tuple: packet.FiveTuple{
				SrcIP:   packet.IPv4(binary.LittleEndian.Uint32(e[8:])),
				DstIP:   packet.IPv4(binary.LittleEndian.Uint32(e[12:])),
				SrcPort: binary.LittleEndian.Uint16(e[16:]),
				DstPort: binary.LittleEndian.Uint16(e[18:]),
				Proto:   e[20],
			},
			Backend: t.internLocked(packet.IPv4(binary.LittleEndian.Uint32(e[22:]))).Clone(),
			Packets: binary.LittleEndian.Uint64(e[26:]),
			Bytes:   binary.LittleEndian.Uint64(e[34:]),
			Spilled: e[21] == 1,
		}
	}
	for ip, rc := range t.intern {
		if rc.StrongCount() == 1 { // no restored flow names it
			_ = rc.Drop()
			delete(t.intern, ip)
		}
	}
	return nil
}
