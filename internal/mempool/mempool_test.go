package mempool

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/telemetry"
)

func TestPoolGetPut(t *testing.T) {
	p := NewPool[int](4, nil)
	if p.Available() != 4 || p.Capacity() != 4 {
		t.Fatalf("avail=%d cap=%d", p.Available(), p.Capacity())
	}
	objs := make([]*int, 0, 4)
	for i := 0; i < 4; i++ {
		o, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	if _, err := p.Get(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	for _, o := range objs {
		p.Put(o)
	}
	if p.Available() != 4 {
		t.Fatalf("avail = %d after puts", p.Available())
	}
	gets, puts, misses := p.gets.Load(), p.puts.Load(), p.misses.Load()
	if gets != 4 || puts != 4 || misses != 1 {
		t.Fatalf("stats = %d/%d/%d", gets, puts, misses)
	}
}

func TestPoolPutBeyondCapacityPanics(t *testing.T) {
	p := NewPool[int](1, nil)
	extra := new(int)
	defer func() {
		if recover() == nil {
			t.Fatal("over-Put did not panic")
		}
	}()
	p.Put(extra)
}

func TestPoolPutNilPanics(t *testing.T) {
	p := NewPool[int](1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Put(nil) did not panic")
		}
	}()
	p.Put(nil)
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool[int](64, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				o, err := p.Get()
				if err != nil {
					continue
				}
				p.Put(o)
			}
		}()
	}
	wg.Wait()
	if p.Available() != 64 {
		t.Fatalf("leaked objects: avail = %d", p.Available())
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 4; i++ {
		if err := r.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Enqueue(5); !errors.Is(err, ErrRingFull) {
		t.Fatalf("err = %v, want ErrRingFull", err)
	}
	for i := 1; i <= 4; i++ {
		v, err := r.Dequeue()
		if err != nil || v != i {
			t.Fatalf("Dequeue = (%d, %v), want (%d, nil)", v, err, i)
		}
	}
	if _, err := r.Dequeue(); !errors.Is(err, ErrRingEmpty) {
		t.Fatalf("err = %v, want ErrRingEmpty", err)
	}
}

func TestRingRoundsUpToPowerOfTwo(t *testing.T) {
	r := NewRing[int](5)
	if r.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", r.Capacity())
	}
}

// enqueueBurst enqueues vs until the ring is full, returning how many
// fit.
func enqueueBurst[T any](r *Ring[T], vs []T) int {
	for i, v := range vs {
		if r.Enqueue(v) != nil {
			return i
		}
	}
	return len(vs)
}

func TestRingBurst(t *testing.T) {
	r := NewRing[int](8)
	in := []int{1, 2, 3, 4, 5, 6}
	if n := enqueueBurst(r, in); n != 6 {
		t.Fatalf("enqueued %d", n)
	}
	if n := enqueueBurst(r, []int{7, 8, 9}); n != 2 {
		t.Fatalf("partially enqueued %d, want 2", n)
	}
	out := make([]int, 16)
	if n := r.DequeueBurst(out); n != 8 {
		t.Fatalf("DequeueBurst = %d, want 8", n)
	}
	want := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range want {
		if out[i] != v {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], v)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// Property: any interleaving of enqueues and dequeues preserves FIFO order
// and never loses or duplicates items.
func TestQuickRingFIFOOrder(t *testing.T) {
	f := func(ops []bool) bool {
		r := NewRing[int](16)
		next := 0
		expect := 0
		for _, enq := range ops {
			if enq {
				if err := r.Enqueue(next); err == nil {
					next++
				}
			} else {
				v, err := r.Dequeue()
				if err == nil {
					if v != expect {
						return false
					}
					expect++
				}
			}
		}
		// Drain.
		for {
			v, err := r.Dequeue()
			if err != nil {
				break
			}
			if v != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: burst and single-op paths agree on the wrap-around ring.
func TestQuickRingBurstConsistency(t *testing.T) {
	f := func(sizes []uint8) bool {
		r := NewRing[int](32)
		next, expect := 0, 0
		for _, s := range sizes {
			n := int(s % 40)
			batch := make([]int, n)
			for i := range batch {
				batch[i] = next + i
			}
			accepted := enqueueBurst(r, batch)
			next += accepted
			out := make([]int, n)
			got := r.DequeueBurst(out)
			for i := 0; i < got; i++ {
				if out[i] != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	p := NewPool[int](1024, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, _ := p.Get()
		p.Put(o)
	}
}

func BenchmarkRingEnqueueDequeue(b *testing.B) {
	r := NewRing[int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Enqueue(i)
		_, _ = r.Dequeue()
	}
}

// TestSlabPool: the pool makes its objects itself, a chunk at a time in
// index order and only when the free list runs dry; it hands each object
// out exactly once, runs init on it once before that, and never grows
// past its capacity.
func TestSlabPool(t *testing.T) {
	const capacity = 2*ChunkSize + 8 // the last chunk is short
	inits := make([]int, capacity)
	index := map[*int]int{}
	p := NewPool(capacity, func(i int, obj *int) {
		inits[i]++
		*obj = i
		index[obj] = i
	})
	if p.Available() != capacity || p.Capacity() != capacity || p.MinAvailable() != capacity || p.Made() != 0 {
		t.Fatalf("fresh pool: avail=%d cap=%d min=%d made=%d, want %d/%d/%d/0",
			p.Available(), p.Capacity(), p.MinAvailable(), p.Made(), capacity, capacity, capacity)
	}
	first, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if *first >= ChunkSize || p.Made() != ChunkSize {
		t.Fatalf("first Get: object %d with %d made, want one from the first chunk of %d", *first, p.Made(), ChunkSize)
	}
	rest := make([]*int, capacity)
	if n := p.GetBurst(rest); n != capacity-1 {
		t.Fatalf("GetBurst = %d, want the %d remaining", n, capacity-1)
	}
	if p.Made() != capacity {
		t.Fatalf("made %d after draining the pool, want all %d", p.Made(), capacity)
	}
	seen := map[*int]bool{first: true}
	for _, o := range rest[:capacity-1] {
		if seen[o] {
			t.Fatal("object handed out twice")
		}
		seen[o] = true
	}
	for i, n := range inits {
		if n != 1 {
			t.Fatalf("object %d initialized %d times, want once", i, n)
		}
	}
	if len(index) != capacity {
		t.Fatalf("%d distinct objects made, want %d", len(index), capacity)
	}
	p.PutBurst(rest[:capacity-1])
	p.Put(first)
	// LIFO: the most recently freed object comes back first.
	if again, _ := p.Get(); again != first {
		t.Fatal("Get after Put did not return the most recently freed object")
	}
	p.Put(first)
	defer func() {
		if recover() == nil {
			t.Fatal("over-Put did not panic")
		}
	}()
	p.Put(new(int))
}

// TestPoolMakesOnlyWhatIsDrawn: k gets make ⌈k/ChunkSize⌉ chunks, and
// returning them and drawing again makes nothing more.
func TestPoolMakesOnlyWhatIsDrawn(t *testing.T) {
	p := NewPool[int](1<<16, nil)
	for _, k := range []int{1, ChunkSize, ChunkSize + 1, 5*ChunkSize - 3} {
		held := make([]*int, k)
		for i := range held {
			held[i], _ = p.Get()
		}
		want := (k + ChunkSize - 1) / ChunkSize * ChunkSize
		if got := p.Made(); got != want {
			t.Fatalf("after %d gets: %d made, want %d", k, got, want)
		}
		p.PutBurst(held)
	}
	if p.Available() != p.Capacity() {
		t.Fatalf("avail %d of %d after everything came back", p.Available(), p.Capacity())
	}
}

// TestPutBurstIsWholeOrNothing: a burst with a nil in it panics before
// the free list is touched, so a recovered panic cannot leave the objects
// ahead of the nil pushed (to be freed again later: a double free).
func TestPutBurstIsWholeOrNothing(t *testing.T) {
	p := NewPool[int](8, nil)
	held := make([]*int, 4)
	p.GetBurst(held)
	before := p.Available()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PutBurst with a nil did not panic")
			}
		}()
		p.PutBurst([]*int{held[0], held[1], nil, held[2]})
	}()
	if got := p.Available(); got != before {
		t.Fatalf("Available %d after a recovered PutBurst panic, want %d unchanged", got, before)
	}
	p.PutBurst(held) // the whole burst still goes back exactly once
	if p.Available() != 8 {
		t.Fatalf("Available %d after returning everything, want 8", p.Available())
	}
}

// TestPoolMinAvailable: the low-water mark follows the deepest draw by
// Get or GetBurst and never recovers when objects come back.
func TestPoolMinAvailable(t *testing.T) {
	p := NewPool[int](16, nil)
	a, _ := p.Get()
	b, _ := p.Get()
	if got := p.MinAvailable(); got != 14 {
		t.Fatalf("min after two Gets = %d, want 14", got)
	}
	p.Put(a)
	p.Put(b)
	burst := make([]*int, 5)
	p.GetBurst(burst)
	if got := p.MinAvailable(); got != 11 {
		t.Fatalf("min after a 5-burst = %d, want 11", got)
	}
	p.PutBurst(burst)
	if avail, low := p.Available(), p.MinAvailable(); avail != 16 || low != 11 {
		t.Fatalf("after everything returned: avail=%d min=%d, want 16 and 11", avail, low)
	}

	reg := telemetry.NewRegistry()
	p.RegisterMetrics(reg, nil)
	if got := reg.Snapshot()["pool_min_available"]; got != float64(11) {
		t.Fatalf("pool_min_available = %v, want 11", got)
	}
}
