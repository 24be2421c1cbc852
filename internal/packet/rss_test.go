package packet

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// rssInput is the 12-byte NdisHashIpv4TcpUdp input HashTuple hashes
// without materialising: what the serial oracle is fed for a tuple.
func rssInput(t FiveTuple) (in [12]byte) {
	binary.BigEndian.PutUint32(in[0:4], uint32(t.SrcIP))
	binary.BigEndian.PutUint32(in[4:8], uint32(t.DstIP))
	binary.BigEndian.PutUint16(in[8:10], t.SrcPort)
	binary.BigEndian.PutUint16(in[10:12], t.DstPort)
	return in
}

// serialRSSHash is FiveTuple.RSSHash as it was before the table: the
// tuple laid out in a stack array and walked bit by bit.
func serialRSSHash(t FiveTuple, key RSSKey) uint32 {
	in := rssInput(t)
	return toeplitzSerial(key, in[:])
}

// secondRSSKey is a key other than the default, for the tests that a
// process with two keys in use stays correct and stays on the cache.
var secondRSSKey = func() (k RSSKey) {
	rand.New(rand.NewSource(2)).Read(k[:])
	return k
}()

func randomTuples(n int) []FiveTuple {
	rng := rand.New(rand.NewSource(1))
	ts := make([]FiveTuple, n)
	for i := range ts {
		ts[i] = FiveTuple{
			SrcIP: IPv4(rng.Uint32()), DstIP: IPv4(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: ProtoUDP,
		}
	}
	return ts
}

// TestToeplitzVerificationVectors checks the hash against the IPv4-with-
// ports test vectors published with the Microsoft RSS specification (the
// same vectors NIC vendors validate against), in both forms: the table
// every caller reaches and the bit-serial definition it is fuzzed
// against. Passing these means the simulated steering is bit-identical
// to hardware RSS under the default key.
func TestToeplitzVerificationVectors(t *testing.T) {
	cases := []struct {
		src, dst         IPv4
		srcPort, dstPort uint16
		want             uint32
	}{
		{Addr(66, 9, 149, 187), Addr(161, 142, 100, 80), 2794, 1766, 0x51ccc178},
		{Addr(199, 92, 111, 2), Addr(65, 69, 140, 83), 14230, 4739, 0xc626b0ea},
		{Addr(24, 19, 198, 95), Addr(12, 22, 207, 184), 12898, 38024, 0x5c2b394a},
		{Addr(38, 27, 205, 30), Addr(209, 142, 163, 6), 48228, 2217, 0xafc7327f},
		{Addr(153, 39, 163, 191), Addr(202, 188, 127, 2), 44251, 1303, 0x10e828a2},
	}
	for _, c := range cases {
		tuple := FiveTuple{SrcIP: c.src, DstIP: c.dst, SrcPort: c.srcPort, DstPort: c.dstPort, Proto: ProtoTCP}
		if got := tuple.RSSHash(DefaultRSSKey); got != c.want {
			t.Errorf("RSSHash(%v) = %#08x, want %#08x", tuple, got, c.want)
		}
		in := rssInput(tuple)
		if got := Toeplitz(DefaultRSSKey, in[:]); got != c.want {
			t.Errorf("Toeplitz(%v) = %#08x, want %#08x", tuple, got, c.want)
		}
		if got := serialRSSHash(tuple, DefaultRSSKey); got != c.want {
			t.Errorf("serialRSSHash(%v) = %#08x, want %#08x", tuple, got, c.want)
		}
	}
}

// FuzzToeplitzTable is the differential target: for any key and any
// input the key covers (0..36 bytes), the table form equals the
// bit-serial definition. Tables are built directly, not through the
// cache, so the fuzzer's keys do not cycle it.
func FuzzToeplitzTable(f *testing.F) {
	vector := rssInput(FiveTuple{SrcIP: Addr(66, 9, 149, 187), DstIP: Addr(161, 142, 100, 80), SrcPort: 2794, DstPort: 1766})
	f.Add(DefaultRSSKey[:], []byte{})
	f.Add(DefaultRSSKey[:], vector[:])
	f.Add(secondRSSKey[:], DefaultRSSKey[:rssMaxInput])
	f.Fuzz(func(t *testing.T, keyBytes, input []byte) {
		var key RSSKey
		copy(key[:], keyBytes)
		if len(input) > rssMaxInput {
			input = input[:rssMaxInput]
		}
		tbl := newRSSTable(key)
		if got, want := tbl.Hash(input), toeplitzSerial(key, input); got != want {
			t.Fatalf("key %x input %x: table %#08x, serial %#08x", key, input, got, want)
		}
		if len(input) >= 12 {
			ft := FiveTuple{
				SrcIP: IPv4(binary.BigEndian.Uint32(input[0:])), DstIP: IPv4(binary.BigEndian.Uint32(input[4:])),
				SrcPort: binary.BigEndian.Uint16(input[8:]), DstPort: binary.BigEndian.Uint16(input[10:]),
			}
			if got, want := tbl.HashTuple(ft), toeplitzSerial(key, input[:12]); got != want {
				t.Fatalf("key %x tuple %v: table %#08x, serial %#08x", key, ft, got, want)
			}
		}
	})
}

// TestToeplitzLongInput: past the 36 bytes a key covers, Toeplitz still
// answers what it always has (zero key bits shifted in).
func TestToeplitzLongInput(t *testing.T) {
	in := make([]byte, RSSKeyLen+8)
	rand.New(rand.NewSource(3)).Read(in)
	for n := rssMaxInput; n <= len(in); n++ {
		if got, want := Toeplitz(secondRSSKey, in[:n]), toeplitzSerial(secondRSSKey, in[:n]); got != want {
			t.Fatalf("len %d: %#08x, serial %#08x", n, got, want)
		}
	}
}

// TestRSSTwoKeysShareTheCache: a process alternating two keys through
// the by-key entry points gets the oracle's hashes and, once both tables
// exist, never builds another — a cache that thrashed would allocate a
// 36 KiB table per call.
func TestRSSTwoKeysShareTheCache(t *testing.T) {
	tuples := randomTuples(64)
	inputs := make([][12]byte, len(tuples))
	for i, ft := range tuples {
		inputs[i] = rssInput(ft)
	}
	keys := [2]RSSKey{DefaultRSSKey, secondRSSKey}
	check := func() {
		for i, ft := range tuples {
			key := keys[i%2]
			want := serialRSSHash(ft, key)
			if got := ft.RSSHash(key); got != want {
				t.Fatalf("RSSHash(%v) under key %d = %#08x, serial %#08x", ft, i%2, got, want)
			}
			if got := Toeplitz(key, inputs[i][:]); got != want {
				t.Fatalf("Toeplitz(%v) under key %d = %#08x, serial %#08x", ft, i%2, got, want)
			}
		}
	}
	check() // warm-up: builds both tables
	if RSSTableFor(keys[0]) != RSSTableFor(keys[0]) || RSSTableFor(keys[0]) == RSSTableFor(keys[1]) {
		t.Fatal("cache does not hold one table per key")
	}
	if allocs := testing.AllocsPerRun(10, check); allocs != 0 {
		t.Fatalf("alternating two keys allocated %.0f times per pass; the table cache is thrashing", allocs)
	}
}

// TestRSSTableCacheBounded: cycling through more keys than the cache
// holds stays correct and keeps the cache at its cap.
func TestRSSTableCacheBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := rssInput(randomTuples(1)[0])
	for i := 0; i < 3*rssTablesMax; i++ {
		var key RSSKey
		rng.Read(key[:])
		if got, want := Toeplitz(key, in[:]), toeplitzSerial(key, in[:]); got != want {
			t.Fatalf("key %d: %#08x, serial %#08x", i, got, want)
		}
		if n := len(*rssTables.Load()); n > rssTablesMax {
			t.Fatalf("cache holds %d tables, cap %d", n, rssTablesMax)
		}
	}
}

// TestRSSTableForConcurrent: goroutines resolving the same new keys at
// once all get one table per key and the oracle's hashes (the race tier
// runs this under -race).
func TestRSSTableForConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]RSSKey, rssTablesMax/2)
	for i := range keys {
		rng.Read(keys[i][:])
	}
	ft := randomTuples(1)[0]
	const workers = 8
	got := make([][]*RSSTable, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, key := range keys {
				tbl := RSSTableFor(key)
				if h, want := tbl.HashTuple(ft), serialRSSHash(ft, key); h != want {
					t.Errorf("worker %d: %#08x, serial %#08x", w, h, want)
				}
				got[w] = append(got[w], tbl)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range keys {
			if got[w][i] != got[0][i] {
				t.Fatalf("workers 0 and %d hold different tables for key %d", w, i)
			}
		}
	}
}

// TestRSSHashAllocatesNothing: the per-packet entry points — by key, by
// resolved table, and the packet's cached-tuple form — are allocation-free.
func TestRSSHashAllocatesNothing(t *testing.T) {
	ft := randomTuples(1)[0]
	tbl := RSSTableFor(DefaultRSSKey)
	frame, err := Build(nil, BuildSpec{Tuple: ft, PayloadLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Data: frame}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	var sink uint32
	if allocs := testing.AllocsPerRun(100, func() {
		sink += ft.RSSHash(DefaultRSSKey) + tbl.HashTuple(ft) + p.RSSHash()
	}); allocs != 0 {
		t.Fatalf("RSS hash allocated %.0f times per call", allocs)
	}
	_ = sink
}

// The pair below hashes random tuples on purpose: a constant input
// flatters the serial form (165 ns against 540-610 ns on random tuples,
// which is what a port receiving real flows paid).
func BenchmarkRSSHashTable(b *testing.B) {
	tuples := randomTuples(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += tuples[i%len(tuples)].RSSHash(DefaultRSSKey)
	}
	_ = sink
}

func BenchmarkRSSHashSerial(b *testing.B) {
	tuples := randomTuples(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += serialRSSHash(tuples[i%len(tuples)], DefaultRSSKey)
	}
	_ = sink
}

// TestRSSHashDeterministic: steering is a pure function of the 5-tuple,
// so one flow can never migrate between workers.
func TestRSSHashDeterministic(t *testing.T) {
	tuple := FiveTuple{SrcIP: Addr(10, 0, 0, 1), DstIP: Addr(10, 99, 0, 1), SrcPort: 40000, DstPort: 80, Proto: ProtoUDP}
	first := tuple.RSSHash(DefaultRSSKey)
	for i := 0; i < 100; i++ {
		if got := tuple.RSSHash(DefaultRSSKey); got != first {
			t.Fatalf("hash varied: %#x then %#x", first, got)
		}
	}
	reta := NewRETA(4, DefaultRETASize)
	q := reta.Queue(first)
	for i := 0; i < 100; i++ {
		if got := reta.Queue(tuple.RSSHash(DefaultRSSKey)); got != q {
			t.Fatalf("queue varied: %d then %d", q, got)
		}
	}
}

// TestRSSHashMatchesPacket: the mbuf-style cached hash agrees with the
// tuple hash, and is zero before Parse.
func TestRSSHashMatchesPacket(t *testing.T) {
	spec := BuildSpec{
		Tuple: FiveTuple{
			SrcIP: Addr(192, 168, 1, 7), DstIP: Addr(10, 0, 0, 9),
			SrcPort: 5555, DstPort: 443, Proto: ProtoTCP,
		},
		PayloadLen: 8,
	}
	frame, err := Build(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &Packet{Data: frame}
	if p.RSSHash() != 0 {
		t.Fatal("RSSHash nonzero before Parse")
	}
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if p.RSSHash() != spec.Tuple.RSSHash(DefaultRSSKey) {
		t.Fatal("packet hash disagrees with tuple hash")
	}
}

// TestRSSShardingBalanced is the property test for flow steering: over a
// population of synthetic flows, the RETA spreads flows across queues
// uniformly enough to pass a chi-squared goodness-of-fit test at the
// 99.9% level. A systematic bias (bad hash, bad indirection) fails this
// loudly; statistical noise does not.
func TestRSSShardingBalanced(t *testing.T) {
	// 99.9% critical values of chi-squared with queues-1 degrees of
	// freedom.
	critical := map[int]float64{2: 10.83, 4: 16.27, 8: 24.32}
	const flows = 8192
	for queues, crit := range critical {
		reta := NewRETA(queues, DefaultRETASize)
		counts := make([]int, queues)
		for i := 0; i < flows; i++ {
			tuple := FiveTuple{
				SrcIP:   Addr(10, byte(i>>16), byte(i>>8), byte(i)),
				DstIP:   Addr(10, 99, 0, 1),
				SrcPort: uint16(40000 + i%20000),
				DstPort: 80,
				Proto:   ProtoUDP,
			}
			counts[reta.Queue(tuple.RSSHash(DefaultRSSKey))]++
		}
		expected := float64(flows) / float64(queues)
		var chi2 float64
		for q, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
			if c == 0 {
				t.Errorf("queues=%d: queue %d got no flows", queues, q)
			}
		}
		if chi2 > crit {
			t.Errorf("queues=%d: chi-squared %.2f exceeds %.2f (counts %v)", queues, chi2, crit, counts)
		}
	}
}

// TestRETAShape checks sizing and round-robin reset state.
func TestRETAShape(t *testing.T) {
	r := NewRETA(3, 100)
	if len(r.table) != DefaultRETASize {
		t.Fatalf("size %d, want %d (rounded up)", len(r.table), DefaultRETASize)
	}
	// Round-robin assignment: entry i serves queue i mod 3.
	for hash := uint32(0); hash < DefaultRETASize; hash++ {
		if got := r.Queue(hash); got != int(hash)%3 {
			t.Fatalf("Queue(%d) = %d, want %d", hash, got, int(hash)%3)
		}
	}
	// Hashes beyond the table wrap on the low bits.
	if r.Queue(DefaultRETASize+5) != r.Queue(5) {
		t.Fatal("indirection did not wrap on low bits")
	}
}

func TestRETARejectsZeroQueues(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRETA(0, DefaultRETASize)
}
