package session

// durable.go is the table's checkpoint: the v1 wire image is the only
// checkpointed representation. Capture appends one fixed-size entry per
// live flow straight from the flow map, under the table lock, into a
// buffer sized for exactly that; the token handed to the domain runtime
// *is* those bytes, so encoding it is the identity and the same buffer
// goes to the WAL. Restore decodes the bytes back into the table's own
// maps and one retained slab of flows, sharing one Rc box per distinct
// backend — Figure 3a's aliasing survives by construction, and a token
// restores any number of times because Restore only reads it.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
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
	return sessionHeaderSize + len(t.flows)*sessionEntrySize
}

// AppendCheckpoint appends the table's wire image to buf, reading the
// live flow map under the table lock. The hot bit is derived state and
// stays out.
func (t *Table) AppendCheckpoint(buf []byte) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf = slices.Grow(buf, sessionHeaderSize+len(t.flows)*sessionEntrySize)
	buf = append(buf, sessionTokenVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.flows)))
	for h, f := range t.flows {
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

// Checkpoint implements the domain runtime's Stateful contract: the
// token is the table's wire image in a buffer of its own. The engine is
// unused — the wire form needs no traversal state.
func (t *Table) Checkpoint(*checkpoint.Engine) (any, error) {
	return t.AppendCheckpoint(nil)
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

// Restore replaces the live table with the flow graph a Checkpoint token
// describes, in place: the token is checked whole first (a bad one leaves
// the table as it was), then under the table lock every live flow's
// backend handle is released, the flow map is cleared (or replaced by one
// sized for the token when it holds under half as many flows) and
// refilled — every flow in one slab the table keeps between restores, one
// shared Rc box per distinct backend (each flow holds a clone, the intern
// map the original), the eviction ring reseeded. The interned boxes are
// reused: a box the token names again only gains its flows' clones back,
// so StrongCount is again flows + 1, and a box it no longer names is
// dropped. A restart thus allocates a box only for a backend the table
// has not interned, not a graph per restore. The token is only read, so a
// later fault can restore from the same epoch again.
func (t *Table) Restore(token any) error {
	data, ok := token.([]byte)
	if !ok {
		return fmt.Errorf("session: restore token is %T, want []byte", token)
	}
	n, err := checkToken(data)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Nothing outside the lock holds a *Flow, and the two places inside
	// it that do are emptied here, so the slab is free to overwrite. Every
	// strong handle on an interned box but the map's own is a resident
	// flow's clone, and every flow is forgotten here: release them at
	// once, so each box is the map's alone before the token's flows clone
	// it again.
	for _, rc := range t.intern {
		_ = rc.DropN(rc.StrongCount() - 1)
	}
	if len(t.flows) < n/2 {
		// A restore onto a table that has not grown to the token's size
		// (a cold reopen): sized once beats growing a group at a time.
		t.flows = make(map[uint64]*Flow, n)
	} else {
		clear(t.flows)
	}
	t.flowPool = nil
	if cap(t.slab) < n {
		t.slab = make([]Flow, n)
	}
	clear(t.slab[n:cap(t.slab)]) // drop the backend handles of a larger past restore
	t.slab = t.slab[:n]
	for i := range t.slab {
		e := data[sessionHeaderSize+i*sessionEntrySize:]
		ip := packet.IPv4(binary.LittleEndian.Uint32(e[22:]))
		t.slab[i] = Flow{
			Tuple: packet.FiveTuple{
				SrcIP:   packet.IPv4(binary.LittleEndian.Uint32(e[8:])),
				DstIP:   packet.IPv4(binary.LittleEndian.Uint32(e[12:])),
				SrcPort: binary.LittleEndian.Uint16(e[16:]),
				DstPort: binary.LittleEndian.Uint16(e[18:]),
				Proto:   e[20],
			},
			Backend: t.internLocked(ip).Clone(),
			Packets: binary.LittleEndian.Uint64(e[26:]),
			Bytes:   binary.LittleEndian.Uint64(e[34:]),
			Spilled: e[21] == 1,
		}
		t.flows[binary.LittleEndian.Uint64(e)] = &t.slab[i]
	}
	for ip, rc := range t.intern {
		if rc.StrongCount() == 1 { // no restored flow names it
			_ = rc.Drop()
			delete(t.intern, ip)
		}
	}
	t.rebuildRingLocked()
	return nil
}

// EncodeToken implements domain.TokenCodec: a Checkpoint token already
// is its wire form, returned without copying.
func (t *Table) EncodeToken(token any) ([]byte, error) {
	data, ok := token.([]byte)
	if !ok {
		return nil, fmt.Errorf("session: encode token is %T, want []byte", token)
	}
	return data, nil
}

// DecodeToken implements domain.TokenCodec: validate the bytes and hand
// them back as the token; Restore does the decoding.
func (t *Table) DecodeToken(data []byte) (any, error) {
	if _, err := checkToken(data); err != nil {
		return nil, err
	}
	return data, nil
}
