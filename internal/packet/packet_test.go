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
		SrcMAC:     MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:     MAC{0x02, 0, 0, 0, 0, 2},
		Tuple:      FiveTuple{SrcIP: Addr(10, 0, 0, 1), DstIP: Addr(192, 168, 1, 2), SrcPort: 12345, DstPort: 80, Proto: proto},
		PayloadLen: payload,
	}
}

func TestBuildParseRoundTripTCP(t *testing.T) {
	// A reused buffer's old bytes must not show through the payload.
	dirty := make([]byte, 256)
	for i := range dirty {
		dirty[i] = 0xAB
	}
	frame, err := Build(dirty, sampleSpec(ProtoTCP, 100))
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
	pay := p.Data[p.l4Off+TCPHeaderLen:]
	if got := len(pay); got != 100 {
		t.Fatalf("payload len = %d, want 100", got)
	}
	for _, b := range pay {
		if b != 0 {
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
	if got := len(p.Data[p.l4Off+UDPHeaderLen:]); got != 8 {
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
	if MAC(p.Data[6:12]) != spec.SrcMAC || MAC(p.Data[0:6]) != spec.DstMAC {
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

func TestResetClearsState(t *testing.T) {
	frame, _ := Build(nil, sampleSpec(ProtoTCP, 0))
	p := &Packet{Data: frame, UserTag: 9}
	_ = p.Parse()
	p.Reset()
	if p.Parsed() || p.UserTag != 0 {
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
		hdr := TCPHeaderLen
		if udp {
			hdr = UDPHeaderLen
		}
		return p.Tuple() == spec.Tuple && p.VerifyIPChecksum() && len(p.Data)-p.l4Off-hdr == int(pay)
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

// TestNewSlab: every header the pool makes has two rooms, each an empty
// window of its own arena capped at the room's size, in index order, so a
// frame grows in place up to its room's size and never into the next
// header's bytes; a fresh header's frame is its small room, Room picks
// the smallest room that holds a frame, and no header exists before a
// Get needs it.
func TestNewSlab(t *testing.T) {
	const size, count = 256, 4
	pool := NewPool(count, size)
	if pool.Capacity() != count || pool.Made() != 0 {
		t.Fatalf("fresh pool: capacity %d, %d headers made; want %d and 0", pool.Capacity(), pool.Made(), count)
	}
	hdrs := make([]*Packet, count)
	if n := pool.GetBurst(hdrs); n != count {
		t.Fatalf("pool handed out %d of %d headers", n, count)
	}
	defer pool.PutBurst(hdrs)
	rooms := []struct {
		name string
		size int
		of   func(*Packet) []byte
	}{
		{"small", smallRoom, func(h *Packet) []byte { return h.small }},
		{"large", size, func(h *Packet) []byte { return h.large }},
	}
	for _, r := range rooms {
		base := uintptr(unsafe.Pointer(unsafe.SliceData(r.of(hdrs[0]))))
		for i, h := range hdrs {
			room := r.of(h)
			if len(room) != 0 || cap(room) != r.size {
				t.Fatalf("header %d %s room: len %d cap %d, want 0 and %d", i, r.name, len(room), cap(room), r.size)
			}
			// Header i's room starts i rooms past header 0's: one arena, in order.
			if off := uintptr(unsafe.Pointer(unsafe.SliceData(room))) - base; off != uintptr(i*r.size) {
				t.Fatalf("header %d %s room starts at arena offset %d, want %d", i, r.name, off, i*r.size)
			}
		}
		full := r.of(hdrs[0])[:r.size]
		grown := append(full, 0xEE)
		if &grown[0] == &full[0] || r.of(hdrs[1])[:1][0] != 0 {
			t.Fatalf("append past an mbuf's %s room wrote into its neighbour's", r.name)
		}
	}

	h := hdrs[0]
	if unsafe.SliceData(h.Data) != unsafe.SliceData(h.small) || len(h.Data) != 0 {
		t.Fatal("a fresh header's Data is not its empty small room")
	}
	for _, c := range []struct{ n, want int }{{0, smallRoom}, {smallRoom, smallRoom}, {smallRoom + 1, size}, {size, size}} {
		if got := cap(h.Room(c.n)); got != c.want {
			t.Fatalf("Room(%d) has %d bytes, want the %d-byte room", c.n, got, c.want)
		}
	}
	if h.Room(size+1) != nil || (&Packet{}).Room(1) != nil {
		t.Fatal("Room returned a room too small for the frame")
	}
}

// TestBuildMatchesFrameLen: FrameLen predicts the length of every frame
// Build makes, on both sides of the small room's edge, and rejects the
// specs Build rejects — a negative payload with an error, not a panic.
func TestBuildMatchesFrameLen(t *testing.T) {
	udp := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen
	cases := []struct {
		name string
		spec BuildSpec
		want int // frame length; 0 means rejected
	}{
		{"udp-64", sampleSpec(ProtoUDP, 64-udp), 64},
		{"udp-128", sampleSpec(ProtoUDP, smallRoom-udp), smallRoom},
		{"udp-129", sampleSpec(ProtoUDP, smallRoom+1-udp), smallRoom + 1},
		{"tcp-empty", sampleSpec(ProtoTCP, 0), EthHeaderLen + IPv4HeaderLen + TCPHeaderLen},
		{"negative-payload", sampleSpec(ProtoUDP, -1), 0},
		{"unknown-proto", sampleSpec(99, 0), 0},
	}
	for _, c := range cases {
		n, lenErr := c.spec.FrameLen()
		frame, buildErr := Build(nil, c.spec)
		if c.want == 0 {
			if lenErr == nil || buildErr == nil {
				t.Errorf("%s: FrameLen err %v, Build err %v; want both to reject the spec", c.name, lenErr, buildErr)
			}
			continue
		}
		if lenErr != nil || buildErr != nil || n != c.want || len(frame) != c.want {
			t.Errorf("%s: FrameLen %d (%v), Build %d bytes (%v); want %d", c.name, n, lenErr, len(frame), buildErr, c.want)
			continue
		}
		if err := (&Packet{Data: frame}).Parse(); err != nil {
			t.Errorf("%s: built frame does not parse: %v", c.name, err)
		}
	}
}
