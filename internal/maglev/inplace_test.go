package maglev

// inplace_test.go holds Restore's rebuild-in-place to the fresh-map
// Restore it replaced, which stays here as the oracle, and pins what a
// restore onto a populated balancer may allocate.

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/packet"
)

// connsView materialises the connection table as the map of whole
// Backend values its slots stand for: what the differential tests and
// the reflect-engine oracle compare.
func (b *Balancer) connsView() map[uint64]Backend {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[uint64]Backend, b.conns.Len())
	for i := 0; i < b.conns.Len(); i++ {
		h, at := b.conns.At(i)
		out[h] = b.backends[*at]
	}
	return out
}

// hasConn reports whether the connection table holds flow hash h.
func (b *Balancer) hasConn(h uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.conns.Find(h) >= 0
}

// restoreFresh is the Restore that rebuild-in-place replaced: decode into
// a new map of Backend values, one string per distinct name, then add
// them to the emptied table in the image's order (as indices, now that
// that is what the balancer holds).
func restoreFresh(b *Balancer, data []byte) error {
	hits, misses, n, body, err := tokenHeader(data)
	if err != nil {
		return err
	}
	conns := make(map[uint64]Backend, n)
	var order []uint64
	names := make(map[string]string)
	err = walkConns(body, n, func(h uint64, ip packet.IPv4, name []byte) {
		s, seen := names[string(name)]
		if !seen {
			s = string(name)
			names[s] = s
		}
		conns[h] = Backend{Name: s, IP: ip}
		order = append(order, h)
	})
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.conns.Reset()
	b.connBytes = len(body)
	b.internTableLocked()
	for _, h := range order {
		be := conns[h]
		_, at := b.conns.At(b.conns.Add(h))
		*at = b.internLocked([]byte(be.Name), be.IP)
	}
	b.hits, b.misses = hits, misses
	return nil
}

func testBackends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{Name: "backend-" + string(rune('a'+i)), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	return out
}

func testTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: packet.IPv4(0x0a000000 + uint32(i)), DstIP: 0x0a630000, SrcPort: uint16(1000 + i), DstPort: 80, Proto: 17}
}

// sameBalancer compares everything a restore must bring back.
func sameBalancer(t *testing.T, got, want *Balancer) {
	t.Helper()
	gotConns, wantConns := got.connsView(), want.connsView()
	got.mu.Lock()
	defer got.mu.Unlock()
	want.mu.Lock()
	defer want.mu.Unlock()
	if got.hits != want.hits || got.misses != want.misses || got.connBytes != want.connBytes {
		t.Fatalf("counters %d/%d, %d conn bytes; oracle %d/%d, %d", got.hits, got.misses, got.connBytes, want.hits, want.misses, want.connBytes)
	}
	if len(gotConns) != len(wantConns) {
		t.Fatalf("%d conns, oracle %d", len(gotConns), len(wantConns))
	}
	for h, w := range wantConns {
		if g, ok := gotConns[h]; !ok || g != w {
			t.Fatalf("conn %x = %+v (%v), oracle %+v", h, g, ok, w)
		}
	}
	// One string per distinct name, as the oracle interns them.
	distinct := map[string]*byte{}
	for _, be := range gotConns {
		p := unsafe.StringData(be.Name)
		if q, seen := distinct[be.Name]; seen && q != p {
			t.Fatalf("backend name %q restored as more than one string", be.Name)
		}
		distinct[be.Name] = p
	}
	// And nothing interned that no connection and no table entry names:
	// a restore starts the set over instead of growing it.
	used := map[Backend]bool{}
	for _, be := range got.table.backends {
		used[be] = true
	}
	for _, be := range gotConns {
		used[be] = true
	}
	if len(got.backends) != len(used) {
		t.Fatalf("%d backends interned, %d in use", len(got.backends), len(used))
	}
}

// TestRestoreInPlaceMatchesFreshMap restores tokens of varying size —
// some naming backends the restoring balancer no longer has — onto one
// long-lived balancer and onto the oracle, with traffic in between, and
// requires the two to agree after every restore; a checkpoint taken
// right after must be sized exactly (connBytes is restored, not
// recounted).
func TestRestoreInPlaceMatchesFreshMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, _ := NewBalancer(testBackends(4), 251)
		want, _ := NewBalancer(testBackends(4), 251)
		for step := 0; step < 12; step++ {
			src, err := NewBalancer(testBackends(2+rng.Intn(6)), 251) // up to 4 the restorer has never heard of
			if err != nil {
				t.Fatal(err)
			}
			base := rng.Intn(1000)
			for i, n := 0, rng.Intn(300); i < n; i++ {
				src.Pick(testTuple(base + rng.Intn(200)))
			}
			tok, err := src.AppendCheckpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Restore(tok); err != nil {
				t.Fatal(err)
			}
			if err := restoreFresh(want, tok); err != nil {
				t.Fatal(err)
			}
			sameBalancer(t, got, want)
			again, err := got.AppendCheckpoint(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(tok) || got.CheckpointSize() != len(tok) {
				t.Fatalf("checkpoint after restore is %d B (size says %d), the token was %d", len(again), got.CheckpointSize(), len(tok))
			}
			for i, n := 0, rng.Intn(300); i < n; i++ {
				tu := testTuple(base + rng.Intn(400))
				if g, w := got.Pick(tu), want.Pick(tu); g != w {
					t.Fatalf("after restore flow sticks to %+v, oracle %+v", g, w)
				}
			}
		}
	}
}

// TestRestoreBadTokenLeavesBalancerUntouched: the token is walked whole
// before the first live entry is cleared.
func TestRestoreBadTokenLeavesBalancerUntouched(t *testing.T) {
	lb, _ := NewBalancer(testBackends(3), 251)
	for i := 0; i < 50; i++ {
		lb.Pick(testTuple(i))
	}
	tok, _ := lb.AppendCheckpoint(nil)
	good := tok
	for _, bad := range [][]byte{nil, good[:len(good)-1], append(append([]byte(nil), good...), 0)} {
		if err := lb.Restore(bad); err == nil {
			t.Fatalf("token of %d bytes accepted", len(bad))
		}
		if lb.ConnCount() != 50 {
			t.Fatalf("a rejected token left %d of 50 conns", lb.ConnCount())
		}
	}
}

// TestRestoreInPlaceAllocBudget: restoring a 4096-conn token onto a
// balancer that already tracks those flows allocates the token's
// interface box and nothing per connection or per backend — it was a map
// of 4096 entries and a string per backend, per restore.
func TestRestoreInPlaceAllocBudget(t *testing.T) {
	lb, _ := NewBalancer(testBackends(8), DefaultTableSize)
	for i := 0; i < 4096; i++ {
		lb.Pick(testTuple(i))
	}
	tok, err := lb.AppendCheckpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := lb.Restore(tok); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("in-place restore of 4096 conns allocates %.0f objects, want <= 2", allocs)
	}
	if lb.ConnCount() != 4096 {
		t.Fatalf("restored %d conns", lb.ConnCount())
	}
}
