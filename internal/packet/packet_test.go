package packet

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

func sampleSpec(proto uint8, payload int) BuildSpec {
	return BuildSpec{
		SrcMAC:      MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:      MAC{0x02, 0, 0, 0, 0, 2},
		Tuple:       FiveTuple{SrcIP: Addr(10, 0, 0, 1), DstIP: Addr(192, 168, 1, 2), SrcPort: 12345, DstPort: 80, Proto: proto},
		TTL:         64,
		PayloadLen:  payload,
		PayloadByte: 0xAB,
	}
}

func TestBuildParseRoundTripTCP(t *testing.T) {
	frame, err := Build(nil, sampleSpec(ProtoTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Data: frame}
	if err := p.Parse(); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tup := p.Tuple()
	if tup.SrcIP != Addr(10, 0, 0, 1) || tup.DstIP != Addr(192, 168, 1, 2) {
		t.Fatalf("tuple IPs = %v", tup)
	}
	if tup.SrcPort != 12345 || tup.DstPort != 80 || tup.Proto != ProtoTCP {
		t.Fatalf("tuple = %v", tup)
	}
	if got := len(p.Payload()); got != 100 {
		t.Fatalf("payload len = %d, want 100", got)
	}
	for _, b := range p.Payload() {
		if b != 0xAB {
			t.Fatal("payload corrupted")
		}
	}
	if !p.VerifyIPChecksum() {
		t.Fatal("bad IP checksum on built packet")
	}
}

func TestBuildParseRoundTripUDP(t *testing.T) {
	frame, err := Build(nil, sampleSpec(ProtoUDP, 8))
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Data: frame}
	if err := p.Parse(); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Tuple().Proto != ProtoUDP {
		t.Fatalf("proto = %d", p.Tuple().Proto)
	}
	if got := len(p.Payload()); got != 8 {
		t.Fatalf("payload len = %d", got)
	}
}

func TestBuildRejectsUnknownProto(t *testing.T) {
	_, err := Build(nil, sampleSpec(99, 0))
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestBuildReusesBuffer(t *testing.T) {
	buf := make([]byte, 2048)
	frame, err := Build(buf, sampleSpec(ProtoUDP, 10))
	if err != nil {
		t.Fatal(err)
	}
	if &frame[0] != &buf[0] {
		t.Fatal("Build reallocated despite sufficient capacity")
	}
}

func TestParseTruncated(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 0))
	for _, cut := range []int{0, 5, EthHeaderLen - 1, EthHeaderLen + 3, EthHeaderLen + IPv4HeaderLen + 5} {
		p := &Packet{Data: frame[:cut]}
		if err := p.Parse(); err == nil {
			t.Fatalf("Parse of %d-byte prefix succeeded", cut)
		}
		if p.Parsed() {
			t.Fatal("Parsed true after failed parse")
		}
	}
}

func TestParseNonIPv4(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 0))
	binary.BigEndian.PutUint16(frame[12:14], 0x0806) // ARP
	p := &Packet{Data: frame}
	if err := p.Parse(); !errors.Is(err, ErrNotIPv4) {
		t.Fatalf("err = %v, want ErrNotIPv4", err)
	}
}

func TestParseBadVersion(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 0))
	frame[EthHeaderLen] = 0x65 // version 6
	p := &Packet{Data: frame}
	if err := p.Parse(); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseBadTotalLength(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoUDP, 4))
	binary.BigEndian.PutUint16(frame[EthHeaderLen+2:EthHeaderLen+4], 9999)
	p := &Packet{Data: frame}
	if err := p.Parse(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestParseUnsupportedTransport(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoUDP, 0))
	frame[EthHeaderLen+9] = 1 // ICMP
	// Fix checksum so only the protocol check can fail… not required for
	// Parse, which doesn't verify checksums, but keep the frame sane.
	p := &Packet{Data: frame}
	if err := p.Parse(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestMACAccessorsAndString(t *testing.T) {
	spec := sampleSpec(ProtoTCP, 0)
	frame, _ := Build(nil, spec)
	p := &Packet{Data: frame}
	if p.SrcMAC() != spec.SrcMAC || p.DstMAC() != spec.DstMAC {
		t.Fatal("MAC round trip failed")
	}
	if got := spec.SrcMAC.String(); got != "02:00:00:00:00:01" {
		t.Fatalf("MAC string = %q", got)
	}
}

func TestIPv4String(t *testing.T) {
	if got := Addr(192, 168, 0, 1).String(); got != "192.168.0.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestFiveTupleString(t *testing.T) {
	tup := FiveTuple{SrcIP: Addr(1, 2, 3, 4), DstIP: Addr(5, 6, 7, 8), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	if got := tup.String(); got != "tcp 1.2.3.4:10>5.6.7.8:20" {
		t.Fatalf("String = %q", got)
	}
	tup.Proto = ProtoUDP
	if got := tup.String(); got != "udp 1.2.3.4:10>5.6.7.8:20" {
		t.Fatalf("String = %q", got)
	}
}

func TestSetDstIPRewritesAndChecksums(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 16))
	p := &Packet{Data: frame}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	p.SetDstIP(Addr(10, 10, 10, 10))
	if p.Tuple().DstIP != Addr(10, 10, 10, 10) {
		t.Fatal("cached tuple not updated")
	}
	if !p.VerifyIPChecksum() {
		t.Fatal("checksum invalid after rewrite")
	}
	// Reparse from the wire bytes: the rewrite must be on the frame.
	q := &Packet{Data: p.Data}
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.Tuple().DstIP != Addr(10, 10, 10, 10) {
		t.Fatal("rewrite not visible on the wire")
	}
}

func TestTTLDecrement(t *testing.T) {
	spec := sampleSpec(ProtoUDP, 0)
	spec.TTL = 2
	frame, _ := Build(nil, spec)
	p := &Packet{Data: frame}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if !p.TTLDecrement() { // 2 -> 1, still alive
		t.Fatal("TTL expired early")
	}
	if !p.VerifyIPChecksum() {
		t.Fatal("checksum invalid after TTL decrement")
	}
	if p.TTLDecrement() { // 1 -> 0, expired
		t.Fatal("TTL should have expired")
	}
	if p.TTLDecrement() { // stays at 0
		t.Fatal("TTL decremented below zero")
	}
}

func TestResetClearsState(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 0))
	p := &Packet{Data: frame, RxPort: 3, UserTag: 9}
	_ = p.Parse()
	p.Reset()
	if p.Parsed() || p.RxPort != 0 || p.UserTag != 0 {
		t.Fatal("Reset incomplete")
	}
}

// Property: Build → Parse recovers the exact 5-tuple for arbitrary
// tuples and payload sizes.
func TestQuickBuildParseTuple(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, udp bool, pay uint8) bool {
		proto := uint8(ProtoTCP)
		if udp {
			proto = ProtoUDP
		}
		spec := BuildSpec{
			Tuple:      FiveTuple{SrcIP: IPv4(src), DstIP: IPv4(dst), SrcPort: sp, DstPort: dp, Proto: proto},
			PayloadLen: int(pay),
		}
		frame, err := Build(nil, spec)
		if err != nil {
			return false
		}
		p := &Packet{Data: frame}
		if err := p.Parse(); err != nil {
			return false
		}
		return p.Tuple() == spec.Tuple && p.VerifyIPChecksum() && len(p.Payload()) == int(pay)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the tuple hash is deterministic and sensitive to each field.
func TestQuickTupleHash(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16) bool {
		a := FiveTuple{SrcIP: IPv4(src), DstIP: IPv4(dst), SrcPort: sp, DstPort: dp, Proto: ProtoTCP}
		if a.Hash() != a.Hash() {
			return false
		}
		b := a
		b.SrcPort ^= 1
		return a.Hash() != b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseTCP(b *testing.B) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 64))
	p := &Packet{Data: frame}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildUDP(b *testing.B) {
	buf := make([]byte, 2048)
	spec := sampleSpec(ProtoUDP, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(buf, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleHash(b *testing.B) {
	tup := FiveTuple{SrcIP: Addr(10, 0, 0, 1), DstIP: Addr(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += tup.Hash()
	}
	_ = sink
}

// TestNewSlab: every header the pool makes is an empty window of the one
// arena capped at its own room, in index order, so frames grow in place
// up to mbufSize and never into the next header's bytes — and no header
// exists before a Get needs it.
func TestNewSlab(t *testing.T) {
	const size, count = 64, 4
	pool := NewPool(count, size)
	if pool.Capacity() != count || pool.Made() != 0 {
		t.Fatalf("fresh pool: capacity %d, %d headers made; want %d and 0", pool.Capacity(), pool.Made(), count)
	}
	hdrs := make([]*Packet, count)
	if n := pool.GetBurst(hdrs); n != count {
		t.Fatalf("pool handed out %d of %d headers", n, count)
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(hdrs[0].Data)))
	for i, h := range hdrs {
		if len(h.Data) != 0 || cap(h.Data) != size {
			t.Fatalf("header %d: len %d cap %d, want 0 and %d", i, len(h.Data), cap(h.Data), size)
		}
		// Header i starts i mbufs past header 0: one arena, in order.
		if off := uintptr(unsafe.Pointer(unsafe.SliceData(h.Data))) - base; off != uintptr(i*size) {
			t.Fatalf("header %d starts at arena offset %d, want %d", i, off, i*size)
		}
	}
	full := hdrs[0].Data[:size]
	grown := append(full, 0xEE)
	if &grown[0] == &full[0] || hdrs[1].Data[:1][0] != 0 {
		t.Fatal("append past an mbuf's room wrote into its neighbour's")
	}
	pool.PutBurst(hdrs)
}
