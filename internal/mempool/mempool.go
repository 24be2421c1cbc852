// Package mempool provides DPDK-style fixed-size object pools and
// single-producer/single-consumer descriptor rings.
//
// DPDK's datapath allocates packet buffers (mbufs) from per-port mempools
// and moves descriptors through lockless rings; the simulated NIC in
// internal/dpdk is built on the same primitives so that the benchmarked
// code path has the same structure (pool get → fill → ring enqueue →
// pipeline → ring dequeue → pool put) as the paper's testbed.
package mempool

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/telemetry"
)

// Errors returned by pool and ring operations.
var (
	ErrExhausted = errors.New("mempool: pool exhausted")
	ErrRingFull  = errors.New("mempool: ring full")
	ErrRingEmpty = errors.New("mempool: ring empty")
)

// Pool is a fixed-capacity free list of objects the pool makes itself,
// a chunk at a time, the first time the free list runs dry. Get/Put are
// safe for concurrent use.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
	made int // objects made so far; the rest of cap exists only as a count
	cap  int
	min  int // fewest objects ever available at once (low-water mark)
	init func(i int, obj *T)

	gets   telemetry.Counter
	puts   telemetry.Counter
	misses telemetry.Counter
}

// ChunkSize is how many objects the pool makes at once: one allocation
// per chunk, never per object, and never more chunks than the deepest
// draw on the pool has needed.
const ChunkSize = 64

// NewPool builds a pool of capacity objects without making any of them.
// Object i (0 ≤ i < capacity) is made in the chunk that first needs it and
// passed to init, if init is non-nil, exactly once before it is handed
// out — DPDK's rte_mempool_obj_iter, run lazily. Chunks are made in
// index order and the free list is a stack, so the objects a workload
// ever touches are the first Made(): Capacity() - MinAvailable() rounded
// up to a chunk.
func NewPool[T any](capacity int, init func(i int, obj *T)) *Pool[T] {
	if capacity <= 0 {
		panic("mempool: capacity must be positive")
	}
	return &Pool[T]{cap: capacity, min: capacity, init: init}
}

// growLocked makes chunks until want objects are free or every object has
// been made. The free list's backing array is grown to hold every made
// object at once, so a Put never reallocates it.
func (p *Pool[T]) growLocked(want int) {
	for len(p.free) < want && p.made < p.cap {
		n := min(ChunkSize, p.cap-p.made)
		chunk := make([]T, n)
		p.free = slices.Grow(p.free, p.made+n-len(p.free))
		for j := range chunk {
			if p.init != nil {
				p.init(p.made+j, &chunk[j])
			}
			p.free = append(p.free, &chunk[j])
		}
		p.made += n
	}
}

// availableLocked counts free objects, made or not.
func (p *Pool[T]) availableLocked() int { return len(p.free) + p.cap - p.made }

// Get removes an object from the pool. It fails with ErrExhausted when the
// pool is empty — like a real mempool, it never over-allocates, which is
// what gives NF frameworks their bounded memory footprint.
func (p *Pool[T]) Get() (*T, error) {
	p.mu.Lock()
	p.growLocked(1)
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		p.misses.Add(1)
		return nil, ErrExhausted
	}
	obj := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.min = min(p.min, p.availableLocked())
	p.mu.Unlock()
	p.gets.Add(1)
	return obj, nil
}

// Put returns an object to the pool. Returning more objects than the pool
// has handed out indicates a double-free and panics.
func (p *Pool[T]) Put(obj *T) {
	if obj == nil {
		panic("mempool: Put(nil)")
	}
	p.mu.Lock()
	if len(p.free) >= p.made {
		p.mu.Unlock()
		panic("mempool: Put beyond capacity (double free?)")
	}
	p.free = append(p.free, obj)
	p.mu.Unlock()
	p.puts.Add(1)
}

// GetBurst fills out with up to len(out) objects under a single lock
// acquisition (rte_mempool_get_bulk-style, except partial fills are
// allowed like the burst ring ops). It returns the number obtained; a
// short return counts one miss.
func (p *Pool[T]) GetBurst(out []*T) int {
	p.mu.Lock()
	p.growLocked(len(out))
	n := min(len(out), len(p.free))
	split := len(p.free) - n
	for i := 0; i < n; i++ {
		out[i] = p.free[split+i]
		p.free[split+i] = nil
	}
	p.free = p.free[:split]
	p.min = min(p.min, p.availableLocked())
	p.mu.Unlock()
	p.gets.Add(uint64(n))
	if n < len(out) {
		p.misses.Add(1)
	}
	return n
}

// PutBurst returns all objects in objs under a single lock acquisition.
// Like Put, overflowing what was handed out or returning nil panics — and
// then returns none of objs: the burst is checked whole before the free
// list is touched, so a recovered panic leaves the pool as it was.
func (p *Pool[T]) PutBurst(objs []*T) {
	if len(objs) == 0 {
		return
	}
	for _, obj := range objs {
		if obj == nil {
			panic("mempool: PutBurst(nil)")
		}
	}
	p.mu.Lock()
	if len(p.free)+len(objs) > p.made {
		p.mu.Unlock()
		panic("mempool: PutBurst beyond capacity (double free?)")
	}
	p.free = append(p.free, objs...)
	p.mu.Unlock()
	p.puts.Add(uint64(len(objs)))
}

// Available reports how many objects are currently free.
func (p *Pool[T]) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.availableLocked()
}

// MinAvailable reports the pool's low-water mark: the fewest objects
// that were ever free (made or not) at once. Capacity() - MinAvailable()
// is the most the pool's users ever held at one time — and, because the
// free list is a stack, the number of distinct objects ever handed out;
// Made() is that rounded up to a whole chunk.
func (p *Pool[T]) MinAvailable() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.min
}

// Capacity reports the pool's fixed capacity.
func (p *Pool[T]) Capacity() int { return p.cap }

// Made reports how many objects the pool has made so far: a whole number
// of chunks (the last one short when capacity is not a multiple of
// ChunkSize), never more than the deepest draw has needed.
func (p *Pool[T]) Made() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.made
}

// RegisterMetrics exports the pool's counters and occupancy on reg
// under the given labels: pool_{gets,puts,misses}_total counters plus
// pool_available/pool_min_available/pool_capacity gauges. The occupancy
// gauges take the pool lock at scrape time only; the hot path pays one
// compare under the lock it already holds.
func (p *Pool[T]) RegisterMetrics(reg *telemetry.Registry, labels telemetry.Labels) {
	reg.RegisterCounter("pool_gets_total", labels, &p.gets)
	reg.RegisterCounter("pool_puts_total", labels, &p.puts)
	reg.RegisterCounter("pool_misses_total", labels, &p.misses)
	reg.RegisterGaugeFunc("pool_available", labels, func() float64 { return float64(p.Available()) })
	reg.RegisterGaugeFunc("pool_min_available", labels, func() float64 { return float64(p.MinAvailable()) })
	reg.RegisterGaugeFunc("pool_capacity", labels, func() float64 { return float64(p.Capacity()) })
}

// Ring is a bounded FIFO of descriptors, modeled on rte_ring. This
// implementation uses a mutex rather than the lockless compare-and-swap
// scheme — the simulation measures pipeline CPU cost, not ring
// scalability — but keeps DPDK's power-of-two sizing and burst API.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	head  int // dequeue position
	tail  int // enqueue position
	count int
}

// NewRing creates a ring with the given capacity, rounded up to a power of
// two (as rte_ring requires).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("mempool: ring capacity must be positive")
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring[T]{buf: make([]T, size)}
}

// Capacity reports the usable capacity of the ring.
func (r *Ring[T]) Capacity() int { return len(r.buf) }

// Len reports the number of queued descriptors.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Enqueue adds one descriptor.
func (r *Ring[T]) Enqueue(v T) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == len(r.buf) {
		return ErrRingFull
	}
	r.buf[r.tail] = v
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.count++
	return nil
}

// Dequeue removes one descriptor.
func (r *Ring[T]) Dequeue() (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var zero T
	if r.count == 0 {
		return zero, ErrRingEmpty
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	return v, nil
}

// DequeueBurst removes up to len(out) descriptors into out, returning the
// count (rte_ring_dequeue_burst semantics — this is the batch fetch the
// paper's pipeline performs each iteration).
func (r *Ring[T]) DequeueBurst(out []T) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	var zero T
	for n < len(out) && r.count > 0 {
		out[n] = r.buf[r.head]
		r.buf[r.head] = zero
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.count--
		n++
	}
	return n
}
