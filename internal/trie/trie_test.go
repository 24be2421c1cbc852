package trie

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestInsertLookupLongestMatch(t *testing.T) {
	tr := New[string]()
	if err := tr.Insert(packet.Addr(10, 0, 0, 0), 8, "ten"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(packet.Addr(10, 1, 0, 0), 16, "ten-one"); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(packet.Addr(10, 1, 2, 0), 24, "ten-one-two"); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ip   packet.IPv4
		want string
		ok   bool
	}{
		{packet.Addr(10, 9, 9, 9), "ten", true},
		{packet.Addr(10, 1, 9, 9), "ten-one", true},
		{packet.Addr(10, 1, 2, 9), "ten-one-two", true},
		{packet.Addr(11, 0, 0, 1), "", false},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(c.ip)
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%v) = (%q, %v), want (%q, %v)", c.ip, got, ok, c.want, c.ok)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := New[string]()
	if err := tr.Insert(0, 0, "default"); err != nil {
		t.Fatal(err)
	}
	got, ok := tr.Lookup(packet.Addr(203, 0, 113, 9))
	if !ok || got != "default" {
		t.Fatalf("Lookup = (%q, %v)", got, ok)
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(packet.Addr(1, 0, 0, 0), 8, 1)
	_ = tr.Insert(packet.Addr(1, 0, 0, 0), 8, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	got, _ := tr.Exact(packet.Addr(1, 0, 0, 0), 8)
	if got != 2 {
		t.Fatalf("Exact = %d", got)
	}
}

func TestInsertRejectsBadLength(t *testing.T) {
	tr := New[int]()
	if err := tr.Insert(0, -1, 1); err == nil {
		t.Fatal("negative length accepted")
	}
	if err := tr.Insert(0, 33, 1); err == nil {
		t.Fatal("length 33 accepted")
	}
}

func TestExact(t *testing.T) {
	tr := New[int]()
	_ = tr.Insert(packet.Addr(10, 0, 0, 0), 8, 7)
	if _, ok := tr.Exact(packet.Addr(10, 0, 0, 0), 16); ok {
		t.Fatal("Exact matched wrong length")
	}
	if _, ok := tr.Exact(packet.Addr(10, 0, 0, 0), 40); ok {
		t.Fatal("Exact accepted bad length")
	}
	v, ok := tr.Exact(packet.Addr(10, 0, 0, 0), 8)
	if !ok || v != 7 {
		t.Fatalf("Exact = (%d, %v)", v, ok)
	}
}

func TestWalkOrderAndPrefixes(t *testing.T) {
	tr := New[string]()
	_ = tr.Insert(packet.Addr(128, 0, 0, 0), 1, "high")
	_ = tr.Insert(packet.Addr(0, 0, 0, 0), 1, "low")
	_ = tr.Insert(packet.Addr(192, 0, 0, 0), 2, "vhigh")
	var got []string
	tr.Walk(func(p packet.IPv4, l int, v *string) bool {
		got = append(got, *v)
		return true
	})
	want := []string{"low", "high", "vhigh"}
	if len(got) != 3 {
		t.Fatalf("walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.Walk(func(packet.IPv4, int, *string) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestWalkReportsCorrectPrefix(t *testing.T) {
	tr := New[int]()
	pfx := packet.Addr(172, 16, 0, 0)
	_ = tr.Insert(pfx, 12, 1)
	found := false
	tr.Walk(func(p packet.IPv4, l int, v *int) bool {
		if l == 12 && p == pfx {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("walk did not report the inserted prefix")
	}
}

// Property: insert a set of /32 host routes; every inserted host looks up
// to its own value and Len matches the distinct count.
func TestQuickHostRoutes(t *testing.T) {
	f := func(addrs []uint32) bool {
		tr := New[uint32]()
		distinct := make(map[packet.IPv4]bool)
		for _, a := range addrs {
			ip := packet.IPv4(a)
			if err := tr.Insert(ip, 32, a); err != nil {
				return false
			}
			distinct[ip] = true
		}
		if tr.Len() != len(distinct) {
			return false
		}
		for _, a := range addrs {
			got, ok := tr.Lookup(packet.IPv4(a))
			if !ok || got != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		_ = tr.Insert(packet.IPv4(uint32(i)<<16), 16, i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Lookup(packet.IPv4(uint32(i) << 16))
	}
}
