package maglev

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dpdk"
	"repro/internal/netbricks"
	"repro/internal/packet"
)

func backends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	return out
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, 7); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("nil backends: %v", err)
	}
	if _, err := NewTable(backends(2), 8); !errors.Is(err, ErrNotPrime) {
		t.Fatalf("non-prime: %v", err)
	}
	if _, err := NewTable(backends(7), 7); err == nil {
		t.Fatal("size <= backends accepted")
	}
	dup := []Backend{{Name: "a"}, {Name: "a"}}
	if _, err := NewTable(dup, 7); !errors.Is(err, ErrDupBackend) {
		t.Fatalf("duplicate: %v", err)
	}
}

// populateMod is NewTable's population loop as it was first written —
// each probe evaluates (offset + next*skip) mod m outright — kept as the
// oracle for the add-and-wrap cursor and occupancy bitset that replaced it.
func populateMod(backends []Backend, size int) []int32 {
	m := uint64(size)
	n := len(backends)
	offset := make([]uint64, n)
	skip := make([]uint64, n)
	nextIdx := make([]uint64, n)
	for i, b := range backends {
		offset[i] = hash1(b.Name) % m
		skip[i] = hash2(b.Name)%(m-1) + 1
	}
	entries := make([]int32, size)
	for i := range entries {
		entries[i] = -1
	}
	for filled := 0; filled < size; {
		for i := 0; i < n && filled < size; i++ {
			var slot uint64
			for {
				slot = (offset[i] + nextIdx[i]*skip[i]) % m
				nextIdx[i]++
				if entries[slot] == -1 {
					break
				}
			}
			entries[slot] = int32(i)
			filled++
		}
	}
	return entries
}

// TestTableMatchesModOracle: the table is entry for entry the one the
// division form builds, over several backend sets and prime sizes. A
// table that differed in one slot would silently re-steer new flows —
// and flows restored from a store written by an older build would no
// longer agree with the table that first placed them.
func TestTableMatchesModOracle(t *testing.T) {
	sets := [][]Backend{
		backends(1), backends(2), backends(3), backends(16), backends(100),
		{{Name: ""}, {Name: "a"}, {Name: "a-much-longer-backend-name.example.net:8443"}},
	}
	for _, size := range []int{7, 13, 251, 4099, DefaultTableSize} {
		for _, bs := range sets {
			if size <= len(bs) {
				continue
			}
			tbl, err := NewTable(bs, size)
			if err != nil {
				t.Fatal(err)
			}
			want := populateMod(bs, size)
			for slot, e := range tbl.entries {
				if e != want[slot] {
					t.Fatalf("size %d, %d backends: slot %d holds backend %d, oracle %d", size, len(bs), slot, e, want[slot])
				}
			}
		}
	}
}

func TestTableFullAndBalanced(t *testing.T) {
	bs := backends(5)
	tbl, err := NewTable(bs, 1009)
	if err != nil {
		t.Fatal(err)
	}
	dist := map[string]int{}
	for _, e := range tbl.entries {
		dist[tbl.backends[e].Name]++
	}
	total := 0
	for _, b := range bs {
		c := dist[b.Name]
		total += c
		// Maglev guarantees near-perfect balance: each backend within a
		// small factor of M/N.
		want := 1009 / 5
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("backend %s has %d slots, want ~%d", b.Name, c, want)
		}
	}
	if total != 1009 {
		t.Fatalf("table not fully populated: %d", total)
	}
}

func TestLookupDeterministic(t *testing.T) {
	tbl, err := NewTable(backends(3), 101)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(0); h < 1000; h++ {
		if tbl.lookup(h) != tbl.lookup(h) {
			t.Fatal("lookup not deterministic")
		}
	}
}

func TestConsistency(t *testing.T) {
	// Maglev's core property: removing one backend remaps only the flows
	// that pointed at it (plus a small disruption fraction).
	bs := backends(10)
	t1, err := NewTable(bs, 1009)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewTable(bs[:9], 1009) // drop backend 9
	if err != nil {
		t.Fatal(err)
	}
	moved, shouldMove := 0, 0
	const flows = 20000
	for h := uint64(0); h < flows; h++ {
		a := t1.lookup(h)
		b := t2.lookup(h)
		if a.Name == "be-9" {
			shouldMove++
			continue
		}
		if a.Name != b.Name {
			moved++
		}
	}
	// Eisenbud et al. report small disruption; allow up to 15% of the
	// remaining flows to move.
	if float64(moved) > 0.15*float64(flows-shouldMove) {
		t.Fatalf("disruption too high: %d of %d flows moved", moved, flows-shouldMove)
	}
	if shouldMove == 0 {
		t.Fatal("no flows mapped to removed backend — test vacuous")
	}
}

func TestBalancerConnectionStickiness(t *testing.T) {
	bs := backends(4)
	lb, err := NewBalancer(bs, 1009)
	if err != nil {
		t.Fatal(err)
	}
	flow := packet.FiveTuple{SrcIP: packet.Addr(1, 1, 1, 1), DstIP: packet.Addr(2, 2, 2, 2), SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP}
	first := lb.Pick(flow)
	// Change the backend set entirely except the flow's backend may even
	// disappear — the connection table still pins it.
	if err := lb.UpdateBackends(backends(2)); err != nil {
		t.Fatal(err)
	}
	second := lb.Pick(flow)
	if first != second {
		t.Fatalf("flow moved: %v -> %v", first, second)
	}
	hits, misses := lb.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if lb.ConnCount() != 1 {
		t.Fatalf("ConnCount = %d", lb.ConnCount())
	}
}

func TestBalancerNewFlowsUseNewTable(t *testing.T) {
	lb, err := NewBalancer(backends(2), 101)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.UpdateBackends(backends(1)); err != nil {
		t.Fatal(err)
	}
	flow := packet.FiveTuple{SrcIP: packet.Addr(9, 9, 9, 9), SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP}
	got := lb.Pick(flow)
	if got.Name != "be-0" {
		t.Fatalf("new flow went to %s, want be-0 (only backend)", got.Name)
	}
}

func TestOperatorRewritesBatch(t *testing.T) {
	lb, err := NewBalancer(backends(3), 101)
	if err != nil {
		t.Fatal(err)
	}
	port := dpdk.NewPort(dpdk.Config{PoolSize: 32, QueueGen: dpdk.NewRSSPartition(dpdk.DefaultSpec(), 16, 1)})
	pkts := make([]*packet.Packet, 16)
	n := port.RxBurst(pkts)
	batch := &netbricks.Batch{Pkts: pkts[:n]}
	op := Operator{LB: lb}
	if err := op.ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
	valid := map[packet.IPv4]bool{}
	for _, b := range backends(3) {
		valid[b.IP] = true
	}
	for _, p := range batch.Pkts {
		if !valid[p.Tuple().DstIP] {
			t.Fatalf("packet steered to non-backend %v", p.Tuple().DstIP)
		}
		if p.UserTag != uint64(p.Tuple().DstIP) {
			t.Fatal("UserTag mismatch")
		}
		if !p.VerifyIPChecksum() {
			t.Fatal("checksum broken by rewrite")
		}
	}
	port.FreeQueue(0, pkts[:n])
}

func TestOperatorParsesUnparsed(t *testing.T) {
	lb, err := NewBalancer(backends(2), 101)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := packet.Build(nil, dpdk.DefaultSpec())
	batch := &netbricks.Batch{Pkts: []*packet.Packet{{Data: frame}}}
	if err := (Operator{LB: lb}).ProcessBatch(batch); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorRejectsGarbage(t *testing.T) {
	lb, err := NewBalancer(backends(2), 101)
	if err != nil {
		t.Fatal(err)
	}
	batch := &netbricks.Batch{Pkts: []*packet.Packet{{Data: []byte{1, 2, 3}}}}
	if err := (Operator{LB: lb}).ProcessBatch(batch); !errors.Is(err, ErrUnparsed) {
		t.Fatalf("err = %v, want ErrUnparsed", err)
	}
}

// Property: every flow hash maps to some backend in the set, and the
// mapping is stable under table rebuild with identical inputs.
func TestQuickLookupTotalAndStable(t *testing.T) {
	tbl, err := NewTable(backends(7), 1009)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, err := NewTable(backends(7), 1009)
	if err != nil {
		t.Fatal(err)
	}
	f := func(h uint64) bool {
		b := tbl.lookup(h)
		if b.Name == "" {
			return false
		}
		return tbl2.lookup(h) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPrime(t *testing.T) {
	primes := []int{2, 3, 5, 7, 101, 1009, 65537}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	comps := []int{-1, 0, 1, 4, 9, 100, 65536}
	for _, c := range comps {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
}

// TestPickConcurrentAccounting: many goroutines picking the same new
// flows at once insert each flow once, count every call as exactly one
// hit or one miss, and leave connBytes equal to the image the next
// checkpoint writes. Run under -race by `make race`.
func TestPickConcurrentAccounting(t *testing.T) {
	lb, err := NewBalancer(backends(5), 251)
	if err != nil {
		t.Fatal(err)
	}
	const workers, flows, rounds = 8, 64, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for f := 0; f < flows; f++ {
					lb.Pick(packet.FiveTuple{SrcIP: packet.Addr(10, 0, 0, 1), SrcPort: uint16(f), DstPort: 80, Proto: packet.ProtoUDP})
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := lb.Stats()
	if misses != flows || hits+misses != workers*flows*rounds {
		t.Fatalf("hits=%d misses=%d, want %d misses of %d picks", hits, misses, flows, workers*flows*rounds)
	}
	if lb.ConnCount() != flows {
		t.Fatalf("%d connections tracked, want %d", lb.ConnCount(), flows)
	}
	image, err := lb.StreamCheckpoint(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lb.CheckpointSize() != len(image) {
		t.Fatalf("CheckpointSize %d, image is %d bytes", lb.CheckpointSize(), len(image))
	}
}

func BenchmarkPick(b *testing.B) {
	lb, err := NewBalancer(backends(16), DefaultTableSize)
	if err != nil {
		b.Fatal(err)
	}
	flow := packet.FiveTuple{SrcIP: packet.Addr(1, 2, 3, 4), SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		flow.SrcPort = uint16(i)
		lb.Pick(flow)
	}
}

func BenchmarkTableBuild(b *testing.B) {
	bs := backends(16)
	for i := 0; i < b.N; i++ {
		if _, err := NewTable(bs, DefaultTableSize); err != nil {
			b.Fatal(err)
		}
	}
}
