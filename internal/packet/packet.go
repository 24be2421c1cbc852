// Package packet provides the packet representation and header codecs used
// by the simulated NIC (internal/dpdk) and the NF framework
// (internal/netbricks).
//
// The layout mirrors what a DPDK mbuf carries: one contiguous buffer with
// parsed header offsets cached alongside. Only the protocols exercised by
// the paper's evaluation (Ethernet, IPv4, TCP, UDP) are implemented, plus
// the 5-tuple extraction Maglev hashes on.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mempool"
	"repro/internal/telemetry/trace"
)

// Header sizes and protocol constants.
const (
	EthHeaderLen  = 14
	IPv4HeaderLen = 20 // without options
	TCPHeaderLen  = 20 // without options
	UDPHeaderLen  = 8

	EtherTypeIPv4 = 0x0800

	ProtoTCP = 6
	ProtoUDP = 17
)

// Errors returned by parsing.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrNotIPv4     = errors.New("packet: not IPv4")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrUnsupported = errors.New("packet: unsupported transport protocol")
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the canonical colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4 is a 32-bit address in network byte order semantics.
type IPv4 uint32

// Addr builds an IPv4 from dotted-quad components.
func Addr(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address as a dotted quad.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// FiveTuple identifies a transport flow; Maglev hashes it to pick a
// backend and the firewall classifies on its fields.
type FiveTuple struct {
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Hash mixes the tuple into a 64-bit value (FNV-1a over the packed
// fields), stable across runs for reproducible experiments.
func (t FiveTuple) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	for i := 0; i < 4; i++ {
		mix(byte(t.SrcIP >> (24 - 8*i)))
	}
	for i := 0; i < 4; i++ {
		mix(byte(t.DstIP >> (24 - 8*i)))
	}
	mix(byte(t.SrcPort >> 8))
	mix(byte(t.SrcPort))
	mix(byte(t.DstPort >> 8))
	mix(byte(t.DstPort))
	mix(t.Proto)
	return h
}

// String renders the tuple as "proto src:port>dst:port".
func (t FiveTuple) String() string {
	proto := "?"
	switch t.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s:%d>%s:%d", proto, t.SrcIP, t.SrcPort, t.DstIP, t.DstPort)
}

// Packet is the unit the pipeline processes: a contiguous frame buffer
// plus cached parse state. Packets are linearly owned by exactly one
// pipeline stage at a time; the NetBricks layer enforces this with
// linear.Owned batches.
type Packet struct {
	Data []byte // full frame, Ethernet first

	// Cached parse results, valid after Parse succeeds.
	l3Off   int
	l4Off   int
	tuple   FiveTuple
	parsed  bool
	UserTag uint64 // scratch word for NF state (e.g. chosen backend)

	// Trace is the sampled-tracing span riding in the mbuf: a fixed-size
	// pointer-free value struct, unarmed (all zero) for all but ~1/N
	// packets. Netport ingress arms it, pipeline stages stamp it, and TX
	// completes it (any drop path aborts it instead).
	Trace trace.Span

	// small and large are the header's two data rooms, set once by
	// NewPool: empty windows of its pool's two arenas, each capped at its
	// own size. Nil for a packet made outside a pool. See Room.
	small, large []byte
}

// smallRoom is the size of every mbuf's small data room: a 64-byte
// frame, the size of every benchmark frame and of the paper's Figure 2
// packets, fits twice over.
const smallRoom = 128

// NewPool lays an mbuf pool out the way DPDK does, with one difference:
// every header has two data rooms, a small one of smallRoom bytes and a
// large one of mbufSize, each in its own arena made here in a single
// pointer-free allocation. The count headers over them are made by the
// pool a chunk at a time on first use. Header i's rooms are the empty,
// capacity-capped slices arena[i*size : i*size : (i+1)*size] of each
// arena, so a frame grows in place up to its room's size and an append
// past that reallocates rather than bleeding into header i+1's room. A
// frame is written only into the room Room picks for it, so an mbuf that
// only ever carries small frames keeps smallRoom bytes resident, not
// mbufSize: the kernel backs an arena page only once it is written. A
// fresh header's Data is its small room.
func NewPool(count, mbufSize int) *mempool.Pool[Packet] {
	if mbufSize <= smallRoom {
		panic(fmt.Sprintf("packet: mbuf size %d must exceed the %d-byte small room", mbufSize, smallRoom))
	}
	small := make([]byte, count*smallRoom)
	large := make([]byte, count*mbufSize)
	return mempool.NewPool(count, func(i int, p *Packet) {
		p.small = small[i*smallRoom : i*smallRoom : (i+1)*smallRoom]
		p.large = large[i*mbufSize : i*mbufSize : (i+1)*mbufSize]
		p.Data = p.small
	})
}

// Room returns the smallest of p's data rooms that holds an n-byte frame:
// an empty slice capped at that room's size, for the caller to write the
// frame into and make p's Data. It returns nil when n is larger than
// every room (and for a packet made outside a pool, which has none).
func (p *Packet) Room(n int) []byte {
	switch {
	case n <= cap(p.small):
		return p.small
	case n <= cap(p.large):
		return p.large
	}
	return nil
}

// Len returns the frame length in bytes.
func (p *Packet) Len() int { return len(p.Data) }

// Parsed reports whether Parse has succeeded on the current Data.
func (p *Packet) Parsed() bool { return p.parsed }

// Tuple returns the cached 5-tuple; Parse must have succeeded.
func (p *Packet) Tuple() FiveTuple { return p.tuple }

// Reset clears parse state so the buffer can be refilled in place. A
// stale armed span (impossible when the port's complete/abort accounting
// balances, but cheap to guard) is cleared so a recycled mbuf never
// resurrects a trace; the unarmed case pays one field compare.
func (p *Packet) Reset() {
	p.parsed = false
	p.UserTag = 0
	if p.Trace.Armed() {
		p.Trace.Clear()
	}
}

// Parse validates Ethernet/IPv4/{TCP,UDP} framing and caches offsets and
// the 5-tuple. It performs the bounds checks a real datapath would.
func (p *Packet) Parse() error {
	p.parsed = false
	b := p.Data
	if len(b) < EthHeaderLen {
		return fmt.Errorf("ethernet: %w", ErrTruncated)
	}
	etherType := binary.BigEndian.Uint16(b[12:14])
	if etherType != EtherTypeIPv4 {
		return fmt.Errorf("ethertype %#04x: %w", etherType, ErrNotIPv4)
	}
	p.l3Off = EthHeaderLen
	ip := b[p.l3Off:]
	if len(ip) < IPv4HeaderLen {
		return fmt.Errorf("ipv4: %w", ErrTruncated)
	}
	if v := ip[0] >> 4; v != 4 {
		return fmt.Errorf("version %d: %w", v, ErrBadVersion)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return fmt.Errorf("ipv4 ihl %d: %w", ihl, ErrTruncated)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen > len(ip) || totalLen < ihl {
		return fmt.Errorf("ipv4 total length %d of %d: %w", totalLen, len(ip), ErrTruncated)
	}
	proto := ip[9]
	p.l4Off = p.l3Off + ihl
	l4 := b[p.l4Off:]
	var sport, dport uint16
	switch proto {
	case ProtoTCP:
		if len(l4) < TCPHeaderLen {
			return fmt.Errorf("tcp: %w", ErrTruncated)
		}
		sport = binary.BigEndian.Uint16(l4[0:2])
		dport = binary.BigEndian.Uint16(l4[2:4])
		dataOff := int(l4[12]>>4) * 4
		if dataOff < TCPHeaderLen || len(l4) < dataOff {
			return fmt.Errorf("tcp data offset %d: %w", dataOff, ErrTruncated)
		}
	case ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return fmt.Errorf("udp: %w", ErrTruncated)
		}
		sport = binary.BigEndian.Uint16(l4[0:2])
		dport = binary.BigEndian.Uint16(l4[2:4])
	default:
		return fmt.Errorf("protocol %d: %w", proto, ErrUnsupported)
	}
	p.tuple = FiveTuple{
		SrcIP:   IPv4(binary.BigEndian.Uint32(ip[12:16])),
		DstIP:   IPv4(binary.BigEndian.Uint32(ip[16:20])),
		SrcPort: sport,
		DstPort: dport,
		Proto:   proto,
	}
	p.parsed = true
	return nil
}

// SetDstIP rewrites the IPv4 destination (used by load balancers when
// forwarding to a backend) and fixes the header checksum incrementally.
func (p *Packet) SetDstIP(ip IPv4) {
	if !p.parsed {
		return
	}
	hdr := p.Data[p.l3Off:p.l4Off]
	binary.BigEndian.PutUint32(hdr[16:20], uint32(ip))
	// Recompute the full checksum; incremental update is an optimization
	// the experiments do not need.
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	binary.BigEndian.PutUint16(hdr[10:12], ipChecksum(hdr))
	p.tuple.DstIP = ip
}

// ipChecksum computes the IPv4 header checksum (RFC 1071) over hdr with
// the checksum field already zeroed.
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// VerifyIPChecksum recomputes and checks the IPv4 header checksum.
func (p *Packet) VerifyIPChecksum() bool {
	if !p.parsed {
		return false
	}
	hdr := p.Data[p.l3Off:p.l4Off]
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return uint16(sum) == 0xffff
}

// BuildSpec describes a synthetic packet for Build. Every built packet
// has TTL 64 and a payload of zero bytes.
type BuildSpec struct {
	SrcMAC, DstMAC MAC
	Tuple          FiveTuple
	PayloadLen     int
}

// FrameLen returns the length of the frame Build makes from s, or the
// error Build returns for it.
func (s BuildSpec) FrameLen() (int, error) {
	var l4len int
	switch s.Tuple.Proto {
	case ProtoTCP:
		l4len = TCPHeaderLen
	case ProtoUDP:
		l4len = UDPHeaderLen
	default:
		return 0, fmt.Errorf("build: protocol %d: %w", s.Tuple.Proto, ErrUnsupported)
	}
	if s.PayloadLen < 0 {
		return 0, fmt.Errorf("build: negative payload length %d", s.PayloadLen)
	}
	return EthHeaderLen + IPv4HeaderLen + l4len + s.PayloadLen, nil
}

// Build serializes a well-formed Ethernet/IPv4/{TCP,UDP} frame into buf
// (allocating if buf is too small) and returns the frame. The traffic
// generators in internal/dpdk call this for every synthetic packet.
func Build(buf []byte, spec BuildSpec) ([]byte, error) {
	total, err := spec.FrameLen()
	if err != nil {
		return nil, err
	}
	l4len := total - EthHeaderLen - IPv4HeaderLen - spec.PayloadLen
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]

	// Ethernet.
	copy(buf[0:6], spec.DstMAC[:])
	copy(buf[6:12], spec.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeIPv4)

	// IPv4.
	ip := buf[EthHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	ip[1] = 0
	binary.BigEndian.PutUint16(ip[2:4], uint16(IPv4HeaderLen+l4len+spec.PayloadLen))
	binary.BigEndian.PutUint16(ip[4:6], 0) // ident
	binary.BigEndian.PutUint16(ip[6:8], 0) // flags/frag
	ip[8] = 64                             // TTL
	ip[9] = spec.Tuple.Proto
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint32(ip[12:16], uint32(spec.Tuple.SrcIP))
	binary.BigEndian.PutUint32(ip[16:20], uint32(spec.Tuple.DstIP))
	binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:IPv4HeaderLen]))

	// Transport.
	l4 := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(l4[0:2], spec.Tuple.SrcPort)
	binary.BigEndian.PutUint16(l4[2:4], spec.Tuple.DstPort)
	switch spec.Tuple.Proto {
	case ProtoTCP:
		binary.BigEndian.PutUint32(l4[4:8], 1)  // seq
		binary.BigEndian.PutUint32(l4[8:12], 0) // ack
		l4[12] = (TCPHeaderLen / 4) << 4        // data offset
		l4[13] = 0x10                           // ACK flag
		binary.BigEndian.PutUint16(l4[14:16], 65535)
		binary.BigEndian.PutUint16(l4[16:18], 0) // checksum: generators skip it
		binary.BigEndian.PutUint16(l4[18:20], 0)
	case ProtoUDP:
		binary.BigEndian.PutUint16(l4[4:6], uint16(UDPHeaderLen+spec.PayloadLen))
		binary.BigEndian.PutUint16(l4[6:8], 0)
	}

	// Payload.
	clear(l4[l4len:])
	return buf, nil
}
