package mempool

import "repro/internal/telemetry"

// Cache is a per-worker front for a shared Pool, modeled on DPDK's
// per-lcore mempool cache: a local free list that absorbs Get/Put
// traffic and only touches the shared pool in bursts (refilling when
// empty, spilling when overfull). On the hot path a worker allocates and
// frees without taking the pool lock at all, which is what keeps the
// sharded pipeline runtime contention-free per packet.
//
// The free list is deliberately unsynchronized — it belongs to exactly
// one worker. Sharing one across goroutines is a bug the race detector
// will flag. The
// counters, by contrast, are telemetry cells (uncontended atomics) so a
// metrics scrape can read refill/spill behavior while the owner runs.
type Cache[T any] struct {
	pool  *Pool[T]
	local []*T
	size  int // high-water mark; refills and spills move size/2 at a time

	gets    telemetry.Counter
	puts    telemetry.Counter
	refills telemetry.Counter
	spills  telemetry.Counter
}

// DefaultCacheSize mirrors DPDK's customary per-lcore cache of 256
// objects.
const DefaultCacheSize = 256

// NewCache creates a cache over pool holding at most size objects
// locally (DefaultCacheSize if size <= 0). The cache starts empty; the
// first Get triggers a refill.
func NewCache[T any](pool *Pool[T], size int) *Cache[T] {
	if size <= 0 {
		size = DefaultCacheSize
	}
	if size > pool.Capacity() {
		size = pool.Capacity()
	}
	if size < 2 {
		size = 2
	}
	return &Cache[T]{pool: pool, local: make([]*T, 0, size), size: size}
}

// Get takes an object from the local free list, refilling half the cache
// from the shared pool when the list is empty. It fails with ErrExhausted
// only when the shared pool is also empty.
func (c *Cache[T]) Get() (*T, error) {
	if len(c.local) == 0 {
		want := c.size / 2
		if want == 0 {
			want = 1
		}
		c.local = c.local[:want]
		n := c.pool.GetBurst(c.local)
		c.local = c.local[:n]
		c.refills.Inc()
		if n == 0 {
			return nil, ErrExhausted
		}
	}
	n := len(c.local) - 1
	obj := c.local[n]
	c.local[n] = nil
	c.local = c.local[:n]
	c.gets.Inc()
	return obj, nil
}

// Put returns an object to the local free list, spilling half the cache
// back to the shared pool when the list is full.
func (c *Cache[T]) Put(obj *T) {
	if obj == nil {
		panic("mempool: Cache.Put(nil)")
	}
	if len(c.local) >= c.size {
		keep := c.size / 2
		c.pool.PutBurst(c.local[keep:])
		for i := keep; i < len(c.local); i++ {
			c.local[i] = nil
		}
		c.local = c.local[:keep]
		c.spills.Inc()
	}
	c.local = append(c.local, obj)
	c.puts.Inc()
}

// Flush returns every locally cached object to the shared pool. Call on
// worker teardown so pool-leak accounting balances.
func (c *Cache[T]) Flush() {
	c.pool.PutBurst(c.local)
	for i := range c.local {
		c.local[i] = nil
	}
	c.local = c.local[:0]
}

// Len reports how many objects the cache currently holds locally.
func (c *Cache[T]) Len() int { return len(c.local) }

// Size reports the cache's high-water mark.
func (c *Cache[T]) Size() int { return c.size }

// RegisterMetrics exports the cache's counters and occupancy on reg
// under the given labels. The occupancy gauge reads the single-owner
// free list; callers whose cache is guarded by a queue lock (dpdk's
// rxQueue) should pass a depth func that takes it.
func (c *Cache[T]) RegisterMetrics(reg *telemetry.Registry, labels telemetry.Labels, depth func() float64) {
	reg.RegisterCounter("cache_gets_total", labels, &c.gets)
	reg.RegisterCounter("cache_puts_total", labels, &c.puts)
	reg.RegisterCounter("cache_refills_total", labels, &c.refills)
	reg.RegisterCounter("cache_spills_total", labels, &c.spills)
	if depth != nil {
		reg.RegisterGaugeFunc("cache_len", labels, depth)
	}
}
