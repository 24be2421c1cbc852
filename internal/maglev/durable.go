package maglev

// durable.go is the balancer's checkpoint: the connection table (flow
// hash → backend stickiness) and the hit/miss counters, in the v1 wire
// image and in no other form. Capture appends the entries straight from
// the live table, in its ring order, under the balancer's lock, each with
// its backend's name and IP written out (the interned index an entry
// holds means nothing outside this process); Restore decodes them back
// into that table, in the image's order. The lookup table is
// config, not state — it is rebuilt from the backend set at boot and no
// checkpoint touches it.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/packet"
)

const balancerTokenVersion = 1

// Token layout: u8 version, u64 hits, u64 misses, u32 conn count, then
// per conn: u64 flow hash, u32 backend IP, u16 name length, name.
const (
	balancerHeaderSize = 1 + 8 + 8 + 4
	connFixedSize      = 8 + 4 + 2
)

// CheckpointSize reports the bytes AppendCheckpoint would write now.
func (b *Balancer) CheckpointSize() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return balancerHeaderSize + b.connBytes
}

// AppendCheckpoint appends the balancer's wire image to buf under the
// balancer's lock, so the walk races no Pick.
func (b *Balancer) AppendCheckpoint(buf []byte) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	buf = slices.Grow(buf, balancerHeaderSize+b.connBytes)
	buf = append(buf, balancerTokenVersion)
	buf = binary.LittleEndian.AppendUint64(buf, b.hits)
	buf = binary.LittleEndian.AppendUint64(buf, b.misses)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(b.conns.Len()))
	for i := 0; i < b.conns.Len(); i++ {
		h, at := b.conns.At(i)
		be := b.backends[*at]
		if len(be.Name) > 0xffff {
			return nil, fmt.Errorf("maglev: backend name of %d bytes does not fit the token", len(be.Name))
		}
		buf = binary.LittleEndian.AppendUint64(buf, h)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(be.IP))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(be.Name)))
		buf = append(buf, be.Name...)
	}
	return buf, nil
}

// CheckCheckpoint validates a wire image whole, the same walk Restore
// makes before it touches the balancer.
func (b *Balancer) CheckCheckpoint(data []byte) error {
	_, _, n, body, err := tokenHeader(data)
	if err == nil {
		err = walkConns(body, n, nil)
	}
	return err
}

// tokenHeader validates a wire image's header and returns the counters,
// the conn count and the entry bytes. The count is checked against the
// bytes that remain, so a caller may size a table by it.
func tokenHeader(data []byte) (hits, misses uint64, n int, body []byte, err error) {
	if len(data) < balancerHeaderSize || data[0] != balancerTokenVersion {
		return 0, 0, 0, nil, fmt.Errorf("maglev: bad token header")
	}
	hits = binary.LittleEndian.Uint64(data[1:])
	misses = binary.LittleEndian.Uint64(data[9:])
	n = int(binary.LittleEndian.Uint32(data[17:]))
	body = data[balancerHeaderSize:]
	if n > len(body)/connFixedSize {
		return 0, 0, 0, nil, fmt.Errorf("maglev: token claims %d conns in %d bytes", n, len(body))
	}
	return hits, misses, n, body, nil
}

// walkConns validates n connection entries filling body exactly and,
// when fn is non-nil, calls it for each.
func walkConns(body []byte, n int, fn func(h uint64, ip packet.IPv4, name []byte)) error {
	for i := 0; i < n; i++ {
		if len(body) < connFixedSize {
			return fmt.Errorf("maglev: token truncated at conn %d", i)
		}
		end := connFixedSize + int(binary.LittleEndian.Uint16(body[12:]))
		if len(body) < end {
			return fmt.Errorf("maglev: token truncated at conn %d name", i)
		}
		if fn != nil {
			fn(binary.LittleEndian.Uint64(body), packet.IPv4(binary.LittleEndian.Uint32(body[8:])), body[connFixedSize:end])
		}
		body = body[end:]
	}
	if len(body) != 0 {
		return fmt.Errorf("maglev: token has %d trailing bytes", len(body))
	}
	return nil
}

// Restore replaces the connection table and counters with the ones a
// wire image describes, in place: the image is walked whole first (a bad
// one leaves the balancer as it was), then under the lock the table is
// emptied, keeping its memory, and refilled in the image's order with the
// hand parked. Each connection's backend is found among the interned
// ones, which restart as the balancer's own backend set, so a restore
// allocates a Backend (and its name) only for one that has since left
// the set. Restored connections start cold. An image that names a flow
// hash twice restores one connection, the last entry's, and counts only
// it in connBytes. An image holding more than ConnTableSize connections
// restores whole; the next insert sweeps the table back under the cap.
// The image is only read, so it restores any number of times. The lookup
// table is untouched: config survives the fault, state is restored.
func (b *Balancer) Restore(data []byte) error {
	if err := b.CheckCheckpoint(data); err != nil {
		return err
	}
	hits, misses, n, body, _ := tokenHeader(data)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.conns.Reset()
	b.connBytes = 0
	b.internTableLocked()
	_ = walkConns(body, n, func(h uint64, ip packet.IPv4, name []byte) {
		i := b.conns.Find(h)
		if i < 0 {
			i = b.conns.Add(h)
		} else {
			_, at := b.conns.At(i)
			b.connBytes -= b.connSizeLocked(*at) // named before: the last entry wins
		}
		_, at := b.conns.At(i)
		*at = b.internLocked(name, ip)
		b.connBytes += b.connSizeLocked(*at)
	})
	b.hits, b.misses = hits, misses
	return nil
}
