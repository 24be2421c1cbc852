package maglev

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/packet"
)

func TestBalancerTokenRoundTrip(t *testing.T) {
	backends := []Backend{
		{Name: "be-a", IP: 0x0a630001},
		{Name: "be-b", IP: 0x0a630002},
		{Name: "be-c", IP: 0x0a630003},
	}
	src, err := NewBalancer(backends, 127)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		src.Pick(packet.FiveTuple{
			SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: 0x0a630000,
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: 17,
		})
	}
	payload, err := src.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewBalancer(backends, 127)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CheckCheckpoint(payload); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(payload); err != nil {
		t.Fatal(err)
	}
	if dst.ConnCount() != src.ConnCount() {
		t.Fatalf("restored %d conns, want %d", dst.ConnCount(), src.ConnCount())
	}
	sh, sm := src.Stats()
	dh, dm := dst.Stats()
	if sh != dh || sm != dm {
		t.Fatalf("stats %d/%d, want %d/%d", dh, dm, sh, sm)
	}
	// Stickiness survives: every flow picks the same backend it had.
	got := dst.connsView()
	for h, want := range src.connsView() {
		if got[h] != want {
			t.Fatalf("conn %x → %+v, want %+v", h, got[h], want)
		}
	}
}

func TestBalancerDecodeRejectsGarbage(t *testing.T) {
	b, err := NewBalancer([]Backend{{Name: "x", IP: 1}}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckCheckpoint(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if err := b.CheckCheckpoint(make([]byte, 21)); err == nil {
		t.Fatal("bad version accepted")
	}
	// Truncated conn list.
	b.Pick(packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17})
	payload, err := b.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckCheckpoint(payload[:len(payload)-2]); err == nil {
		t.Fatal("truncated accepted")
	}
	// A hostile conn count (CRC-valid on disk, so it reaches the decoder
	// at boot) must be refused against the bytes that remain, before any
	// map is sized by it.
	huge := append([]byte(nil), payload...)
	huge[17], huge[18], huge[19], huge[20] = 0xff, 0xff, 0xff, 0xff
	if err := b.CheckCheckpoint(huge); err == nil {
		t.Fatal("4G-conn count accepted by CheckCheckpoint")
	}
	if err := b.Restore(huge); err == nil {
		t.Fatal("4G-conn count accepted by Restore")
	}
}

// sortedToken returns a token with its connection entries (all of one
// size: every backend name here is 4 bytes) in byte order, so two
// captures of one connection set compare whatever the map's order.
func sortedToken(t *testing.T, tok []byte) []byte {
	t.Helper()
	out := bytes.Clone(tok)
	const entry = connFixedSize + 4
	body := out[balancerHeaderSize:]
	if len(body)%entry != 0 {
		t.Fatalf("%d entry bytes are not a multiple of %d", len(body), entry)
	}
	chunks := make([][]byte, 0, len(body)/entry)
	for off := 0; off < len(body); off += entry {
		chunks = append(chunks, bytes.Clone(body[off:off+entry]))
	}
	slices.SortFunc(chunks, bytes.Compare)
	for i, c := range chunks {
		copy(body[i*entry:], c)
	}
	return out
}

// TestDepartedBackendSurvivesCheckpoint: a backend leaves through
// UpdateBackends while connections still point at it. They keep picking
// it, by name and IP; their checkpoint names it in full; a fresh balancer
// that never had it restores them onto it; and the token — v1, the name
// written per connection — is the bytes the Backend-valued table wrote
// for the same picks (its entries sorted; the digest was taken at 5f5d456).
func TestDepartedBackendSurvivesCheckpoint(t *testing.T) {
	const parentLen, parentDigest = 597, "26222743394ef0c2cbc157d1a5f357b7c14aa07554ab35d29b2808bc8d0461b0"
	old := []Backend{{Name: "be-a", IP: 0x0a630001}, {Name: "be-b", IP: 0x0a630002}, {Name: "be-c", IP: 0x0a630003}}
	// be-b leaves; be-c comes back under a new address.
	next := []Backend{{Name: "be-a", IP: 0x0a630001}, {Name: "be-c", IP: 0x0a630009}, {Name: "be-d", IP: 0x0a630004}}
	src, err := NewBalancer(old, 127)
	if err != nil {
		t.Fatal(err)
	}
	before := map[int]Backend{}
	for i := 0; i < 24; i++ {
		before[i] = src.Pick(testTuple(i))
	}
	if err := src.UpdateBackends(next); err != nil {
		t.Fatal(err)
	}
	for i := 24; i < 32; i++ {
		src.Pick(testTuple(i)) // new flows see only the new set
	}
	tok, err := src.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(sortedToken(t, tok))
	if got := hex.EncodeToString(sum[:]); len(tok) != parentLen || got != parentDigest {
		t.Fatalf("token of %d bytes, digest %s; the parent wrote %d bytes, digest %s", len(tok), got, parentLen, parentDigest)
	}

	dst, err := NewBalancer(next, 127)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(tok); err != nil {
		t.Fatal(err)
	}
	again, err := dst.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sortedToken(t, again), sortedToken(t, tok)) {
		t.Fatal("the restored balancer's checkpoint differs from the token it was restored from")
	}
	departed := 0
	for _, lb := range []*Balancer{src, dst} {
		for i, want := range before {
			if got := lb.Pick(testTuple(i)); got != want {
				t.Fatalf("flow %d picks %+v, it was established on %+v", i, got, want)
			}
			if want.Name == "be-b" || want.IP == 0x0a630003 {
				departed++
			}
		}
		for i := 24; i < 32; i++ {
			if got := lb.Pick(testTuple(i)); !slices.Contains(next, got) {
				t.Fatalf("flow %d, new after the update, picks %+v", i, got)
			}
		}
	}
	if departed == 0 {
		t.Fatal("no established flow sat on a backend that left: the test exercises nothing")
	}
}

// TestConnTableHoldsNoPointers: a connection-table entry (flow hash and
// backend index), the index over the entries and the hot bits hold no
// pointer, so the collector allocates all three noscan and never walks
// them.
func TestConnTableHoldsNoPointers(t *testing.T) {
	lb, err := NewBalancer(testBackends(2), 127)
	if err != nil {
		t.Fatal(err)
	}
	tbl := reflect.TypeOf(lb.conns)
	for _, name := range []string{"chunks", "index", "hot"} {
		f, ok := tbl.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", tbl, name)
		}
		elem := f.Type.Elem() // the slice's element
		if elem.Kind() == reflect.Pointer {
			elem = elem.Elem() // a chunk
		}
		leakcheck.NoPointers(t, "conns "+name, reflect.Zero(elem).Interface())
	}
}

// restoredInvariants checks what any accepted image must leave behind: a
// checkpoint size that is the bytes a checkpoint writes, one entry per
// resident connection.
func restoredInvariants(t *testing.T, lb *Balancer) {
	t.Helper()
	img, err := lb.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != lb.CheckpointSize() {
		t.Fatalf("CheckpointSize %d, a checkpoint writes %d", lb.CheckpointSize(), len(img))
	}
	if n := int(binary.LittleEndian.Uint32(img[17:])); n != lb.ConnCount() {
		t.Fatalf("checkpoint holds %d conns, %d resident", n, lb.ConnCount())
	}
}

// TestRestoreImageNamingAFlowTwice: an image whose entries name one flow
// hash twice restores one connection, the last entry's, and sizes the
// next checkpoint by it. (Before the fix connBytes was the image's body,
// so CheckpointSize said 51 bytes while the capture wrote 36, and
// the extra 15 never drained.)
func TestRestoreImageNamingAFlowTwice(t *testing.T) {
	bs := testBackends(3)
	tok := []byte{balancerTokenVersion}
	tok = binary.LittleEndian.AppendUint64(tok, 5)
	tok = binary.LittleEndian.AppendUint64(tok, 2)
	tok = binary.LittleEndian.AppendUint32(tok, 2)
	for _, be := range []Backend{bs[0], bs[2]} {
		tok = binary.LittleEndian.AppendUint64(tok, testTuple(1).Hash())
		tok = binary.LittleEndian.AppendUint32(tok, uint32(be.IP))
		tok = binary.LittleEndian.AppendUint16(tok, uint16(len(be.Name)))
		tok = append(tok, be.Name...)
	}
	lb, err := NewBalancer(bs, 251)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Restore(tok); err != nil {
		t.Fatal(err)
	}
	if lb.ConnCount() != 1 {
		t.Fatalf("restored %d conns, want 1", lb.ConnCount())
	}
	if got := lb.Pick(testTuple(1)); got != bs[2] {
		t.Fatalf("flow 1 sticks to %+v, want the last entry's %+v", got, bs[2])
	}
	restoredInvariants(t, lb)
}
