// RSS-style flow steering: the Toeplitz hash NICs compute per received
// packet, and the redirection table (RETA) that maps hashes to receive
// queues.
//
// Receive-side scaling is what lets a multi-queue NIC spread flows across
// cores while keeping every packet of one flow on the same core — the
// property the sharded pipeline runtime depends on for its per-worker
// connection state (and, together with linear batch ownership, for being
// data-race-free by construction). The hash here is the exact Microsoft
// RSS Toeplitz construction over the IPv4 4-tuple, verified against the
// published test vectors, so the simulated NIC steers like real hardware.

package packet

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// RSSKeyLen is the length of an RSS hash key in bytes (40 bytes covers
// the longest defined input, IPv6 with ports).
const RSSKeyLen = 40

// RSSKey is a Toeplitz hash key.
type RSSKey [RSSKeyLen]byte

// DefaultRSSKey is the well-known default key from the Microsoft RSS
// specification, used (byte for byte) by ixgbe, i40e, and the RSS
// verification suite. Deterministic across runs, so experiments that
// shard by flow are reproducible.
var DefaultRSSKey = RSSKey{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// rssMaxInput is the longest input a key fully covers: every input bit
// needs a 32-bit key window starting at its own position.
const rssMaxInput = RSSKeyLen - 4

// RSSTable is one key's Toeplitz hash in table form. The hash is linear
// over GF(2), so the contribution of input byte p with value v — the XOR
// of the key windows its set bits select — depends on (p, v) alone and
// is precomputed for all of them: a hash is one load and one XOR per
// input byte where the bit-serial definition (toeplitzSerial, kept as
// the tests' and fuzz target's oracle) takes eight shift/test/XOR steps
// with data-dependent branches. 36 positions × 256 values × 4 bytes =
// 36 KiB per key, of which a 12-byte IPv4 4-tuple reads the first 12.
// Immutable after construction; safe for concurrent use.
type RSSTable struct {
	key RSSKey
	win [rssMaxInput][256]uint32
}

func newRSSTable(key RSSKey) *RSSTable {
	t := &RSSTable{key: key}
	// window's top 32 bits are the key window at the current input bit,
	// advanced exactly as toeplitzSerial advances it.
	window := binary.BigEndian.Uint64(key[:8])
	for p := range t.win {
		var bit [8]uint32 // bit[j]: window selected by input bit j (LSB = 0)
		for j := 7; j >= 0; j-- {
			bit[j] = uint32(window >> 32)
			window <<= 1
		}
		if p+8 < len(key) {
			window |= uint64(key[p+8])
		}
		w := &t.win[p]
		for v := 1; v < 256; v++ {
			// v with its lowest set bit cleared is already filled in.
			w[v] = w[v&(v-1)] ^ bit[bits.TrailingZeros8(uint8(v))]
		}
	}
	return t
}

// rssTables caches the tables of the keys this process has hashed with:
// a copy-on-write slice, read with one atomic load and a 40-byte compare
// per entry, so Toeplitz and FiveTuple.RSSHash stay cheap for callers
// that pass a key per call. Writers serialize on rssTablesMu. The cap
// bounds memory for a caller cycling through keys (the oldest entry is
// dropped); real processes use one key, or two during a rekey.
var (
	rssTables   atomic.Pointer[[]*RSSTable]
	rssTablesMu sync.Mutex
)

const rssTablesMax = 8

// RSSTableFor returns key's table, building it on first use. Ports
// resolve it once at construction and hash through it directly.
func RSSTableFor(key RSSKey) *RSSTable {
	if t := cachedRSSTable(key); t != nil {
		return t
	}
	rssTablesMu.Lock()
	defer rssTablesMu.Unlock()
	if t := cachedRSSTable(key); t != nil { // a racing caller published it
		return t
	}
	var cur []*RSSTable
	if p := rssTables.Load(); p != nil {
		cur = *p
	}
	if len(cur) == rssTablesMax {
		cur = cur[1:]
	}
	t := newRSSTable(key)
	next := append(slices.Clip(cur), t) // clipped: append copies, readers keep cur
	rssTables.Store(&next)
	return t
}

func cachedRSSTable(key RSSKey) *RSSTable {
	if cur := rssTables.Load(); cur != nil {
		for _, t := range *cur {
			if t.key == key {
				return t
			}
		}
	}
	return nil
}

// Hash is the Toeplitz hash of input under the table's key. Inputs
// longer than the key covers take the bit-serial path, which shifts in
// zero key bits past the end as it always has.
func (t *RSSTable) Hash(input []byte) uint32 {
	if len(input) > rssMaxInput {
		return toeplitzSerial(t.key, input)
	}
	var hash uint32
	for p, b := range input {
		hash ^= t.win[p][b]
	}
	return hash
}

// HashTuple is the flow's RSS hash over the standard IPv4 input
// ordering: source address, destination address, source port,
// destination port (the NdisHashIpv4TcpUdp input). The transport protocol
// is not part of the input, matching the hardware definition.
func (t *RSSTable) HashTuple(ft FiveTuple) uint32 {
	w := &t.win
	s, d := uint32(ft.SrcIP), uint32(ft.DstIP)
	return w[0][byte(s>>24)] ^ w[1][byte(s>>16)] ^ w[2][byte(s>>8)] ^ w[3][byte(s)] ^
		w[4][byte(d>>24)] ^ w[5][byte(d>>16)] ^ w[6][byte(d>>8)] ^ w[7][byte(d)] ^
		w[8][byte(ft.SrcPort>>8)] ^ w[9][byte(ft.SrcPort)] ^
		w[10][byte(ft.DstPort>>8)] ^ w[11][byte(ft.DstPort)]
}

// Toeplitz computes the RSS Toeplitz hash of input under key: for every
// set bit i of the input (most-significant first), the 32-bit window of
// the key starting at bit i is XORed into the result.
func Toeplitz(key RSSKey, input []byte) uint32 {
	return RSSTableFor(key).Hash(input)
}

// toeplitzSerial is the definition, bit by bit: the reference the table
// form is tested and fuzzed against, and the path for over-long inputs.
func toeplitzSerial(key RSSKey, input []byte) uint32 {
	// window holds the next 64 key bits, left-aligned; the top 32 bits
	// are the window the current input bit selects.
	window := binary.BigEndian.Uint64(key[:8])
	next := 8
	var hash uint32
	for _, b := range input {
		for bit := 7; bit >= 0; bit-- {
			if b&(1<<uint(bit)) != 0 {
				hash ^= uint32(window >> 32)
			}
			window <<= 1
		}
		// Eight shifts freed the low byte; pull in the next key byte.
		if next < len(key) {
			window |= uint64(key[next])
			next++
		}
	}
	return hash
}

// RSSHash computes the flow's RSS hash with key (see HashTuple).
func (t FiveTuple) RSSHash(key RSSKey) uint32 {
	return RSSTableFor(key).HashTuple(t)
}

// RSSHash is the packet's receive-side-scaling hash under the default
// key; Parse must have succeeded. This is the value a NIC would deposit
// in the mbuf's rss field.
func (p *Packet) RSSHash() uint32 {
	if !p.parsed {
		return 0
	}
	return p.tuple.RSSHash(DefaultRSSKey)
}

// DefaultRETASize is the indirection-table size most NICs expose (ixgbe:
// 128 entries).
const DefaultRETASize = 128

// RETA is an RSS redirection table: hash → queue. Hardware looks up the
// low-order bits of the Toeplitz hash in this table rather than taking a
// modulus, so queues can be rebalanced by rewriting entries without
// touching the hash. The table is immutable after construction and safe
// for concurrent readers.
type RETA struct {
	table []uint16
}

// NewRETA builds a redirection table of the given size (rounded up to a
// power of two, minimum DefaultRETASize) with entries assigned to queues
// round-robin — the reset state of real NICs.
func NewRETA(queues, size int) *RETA {
	if queues <= 0 {
		panic("packet: RETA queues must be positive")
	}
	if size < DefaultRETASize {
		size = DefaultRETASize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	r := &RETA{table: make([]uint16, n)}
	for i := range r.table {
		r.table[i] = uint16(i % queues)
	}
	return r
}

// Queue maps an RSS hash to a receive queue via the indirection table.
func (r *RETA) Queue(hash uint32) int {
	return int(r.table[hash&uint32(len(r.table)-1)])
}
