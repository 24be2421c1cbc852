package mempool

import (
	"sync"
	"testing"
)

func TestCacheGetPutRoundTrip(t *testing.T) {
	pool := NewPool[int](64, nil)
	c := NewCache(pool, 8)
	objs := make([]*int, 0, 64)
	for i := 0; i < 64; i++ {
		obj, err := c.Get()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		objs = append(objs, obj)
	}
	if _, err := c.Get(); err != ErrExhausted {
		t.Fatalf("err = %v, want ErrExhausted past capacity", err)
	}
	for _, obj := range objs {
		c.Put(obj)
	}
	c.Flush()
	if pool.Available() != 64 {
		t.Fatalf("pool available = %d after flush, want 64", pool.Available())
	}
}

func TestCacheAmortizesPoolTraffic(t *testing.T) {
	pool := NewPool[int](1024, nil)
	c := NewCache(pool, 64)
	// A steady get/put workload should touch the shared pool far less
	// often than once per operation.
	for i := 0; i < 10000; i++ {
		obj, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		c.Put(obj)
	}
	gets, puts, refills, spills := c.gets.Load(), c.puts.Load(), c.refills.Load(), c.spills.Load()
	if gets != 10000 || puts != 10000 {
		t.Fatalf("gets=%d puts=%d", gets, puts)
	}
	poolGets, poolPuts := pool.gets.Load(), pool.puts.Load()
	if poolOps := poolGets + poolPuts; poolOps > 100 {
		t.Fatalf("pool saw %d ops for 20000 cache ops (refills=%d spills=%d); cache not absorbing traffic",
			poolOps, refills, spills)
	}
}

func TestCacheSpillsWhenOverfull(t *testing.T) {
	pool := NewPool[int](64, nil)
	c := NewCache(pool, 4)
	// Drain the pool through the cache, then return everything: the cache
	// must spill the excess rather than grow without bound.
	objs := make([]*int, 0, 64)
	for i := 0; i < 64; i++ {
		obj, err := c.Get()
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	for _, obj := range objs {
		c.Put(obj)
	}
	if c.Len() > c.Size() {
		t.Fatalf("cache holds %d > size %d", c.Len(), c.Size())
	}
	if got := pool.Available() + c.Len(); got != 64 {
		t.Fatalf("pool+cache = %d, want 64", got)
	}
	spills := c.spills.Load()
	if spills == 0 {
		t.Fatal("no spills recorded")
	}
}

func TestCacheSizeClampedToPool(t *testing.T) {
	pool := NewPool[int](4, nil)
	c := NewCache(pool, 1024)
	if c.Size() > 4 {
		t.Fatalf("cache size %d exceeds pool capacity", c.Size())
	}
	if d := NewCache(pool, 0); d.Size() != 4 {
		t.Fatalf("default size = %d, want clamped to pool capacity 4", d.Size())
	}
}

func TestCachePutNilPanics(t *testing.T) {
	pool := NewPool[int](4, nil)
	c := NewCache(pool, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Put(nil)
}

// TestPoolBurstOps checks GetBurst/PutBurst semantics directly.
func TestPoolBurstOps(t *testing.T) {
	pool := NewPool[int](8, nil)
	out := make([]*int, 6)
	if n := pool.GetBurst(out); n != 6 {
		t.Fatalf("GetBurst = %d, want 6", n)
	}
	if pool.Available() != 2 {
		t.Fatalf("available = %d", pool.Available())
	}
	// Short fill: only 2 left.
	rest := make([]*int, 4)
	if n := pool.GetBurst(rest); n != 2 {
		t.Fatalf("short GetBurst = %d, want 2", n)
	}
	misses := pool.misses.Load()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1 for the short burst", misses)
	}
	pool.PutBurst(out)
	pool.PutBurst(rest[:2])
	if pool.Available() != 8 {
		t.Fatalf("available = %d after returns", pool.Available())
	}
}

func TestPoolPutBurstOverflowPanics(t *testing.T) {
	pool := NewPool[int](2, nil)
	extra := []*int{new(int), new(int), new(int)}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	pool.PutBurst(extra)
}

// TestConcurrentCachesOverSharedPool is the race-tier stress: many
// worker-owned caches hammering one shared pool concurrently. Under
// -race this proves the burst refill/spill paths are properly
// synchronized at the pool while each cache stays single-owner.
func TestConcurrentCachesOverSharedPool(t *testing.T) {
	const (
		workers = 8
		iters   = 5000
	)
	pool := NewPool[int](workers*64, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewCache(pool, 32)
			held := make([]*int, 0, 16)
			for i := 0; i < iters; i++ {
				if obj, err := c.Get(); err == nil {
					held = append(held, obj)
				}
				if len(held) >= 16 || (i%3 == 0 && len(held) > 0) {
					c.Put(held[len(held)-1])
					held = held[:len(held)-1]
				}
			}
			for _, obj := range held {
				c.Put(obj)
			}
			c.Flush()
		}()
	}
	wg.Wait()
	if pool.Available() != workers*64 {
		t.Fatalf("pool leak: %d available, want %d", pool.Available(), workers*64)
	}
}

// TestConcurrentPoolGetPutBurst races burst and single ops against each
// other on the shared pool.
func TestConcurrentPoolGetPutBurst(t *testing.T) {
	pool := NewPool[int](256, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]*int, 8)
			for i := 0; i < 2000; i++ {
				if w%2 == 0 {
					n := pool.GetBurst(buf)
					pool.PutBurst(buf[:n])
				} else {
					if obj, err := pool.Get(); err == nil {
						pool.Put(obj)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if pool.Available() != 256 {
		t.Fatalf("pool leak: %d available", pool.Available())
	}
}
