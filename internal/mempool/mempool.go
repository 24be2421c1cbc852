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
	"sync"

	"repro/internal/telemetry"
)

// Errors returned by pool and ring operations.
var (
	ErrExhausted = errors.New("mempool: pool exhausted")
	ErrRingFull  = errors.New("mempool: ring full")
	ErrRingEmpty = errors.New("mempool: ring empty")
)

// Pool is a fixed-capacity free list of preallocated objects. Get/Put are
// safe for concurrent use.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
	cap  int
	min  int // fewest objects ever free at once (low-water mark)

	gets   telemetry.Counter
	puts   telemetry.Counter
	misses telemetry.Counter
}

// NewSlabPool builds a pool over the elements of slab: the free list
// points into the caller's one contiguous allocation — DPDK's layout,
// where a mempool is carved from a single memzone. The pool hands objects out from the end of the
// slab first and reuses the most recently freed, so the objects a
// workload ever touches are the top Capacity() - MinAvailable() of it.
func NewSlabPool[T any](slab []T) *Pool[T] {
	if len(slab) == 0 {
		panic("mempool: capacity must be positive")
	}
	p := &Pool[T]{cap: len(slab), min: len(slab)}
	p.free = make([]*T, len(slab))
	for i := range slab {
		p.free[i] = &slab[i]
	}
	return p
}

// Get removes an object from the pool. It fails with ErrExhausted when the
// pool is empty — like a real mempool, it never over-allocates, which is
// what gives NF frameworks their bounded memory footprint.
func (p *Pool[T]) Get() (*T, error) {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		p.misses.Add(1)
		return nil, ErrExhausted
	}
	obj := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.min = min(p.min, n-1)
	p.mu.Unlock()
	p.gets.Add(1)
	return obj, nil
}

// Put returns an object to the pool. Returning more objects than capacity
// indicates a double-free and panics.
func (p *Pool[T]) Put(obj *T) {
	if obj == nil {
		panic("mempool: Put(nil)")
	}
	p.mu.Lock()
	if len(p.free) >= p.cap {
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
	n := len(out)
	if avail := len(p.free); n > avail {
		n = avail
	}
	split := len(p.free) - n
	for i := 0; i < n; i++ {
		out[i] = p.free[split+i]
		p.free[split+i] = nil
	}
	p.free = p.free[:split]
	p.min = min(p.min, split)
	p.mu.Unlock()
	p.gets.Add(uint64(n))
	if n < len(out) {
		p.misses.Add(1)
	}
	return n
}

// PutBurst returns all objects in objs under a single lock acquisition.
// Like Put, overflowing capacity or returning nil panics.
func (p *Pool[T]) PutBurst(objs []*T) {
	if len(objs) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free)+len(objs) > p.cap {
		p.mu.Unlock()
		panic("mempool: PutBurst beyond capacity (double free?)")
	}
	for _, obj := range objs {
		if obj == nil {
			p.mu.Unlock()
			panic("mempool: PutBurst(nil)")
		}
		p.free = append(p.free, obj)
	}
	p.mu.Unlock()
	p.puts.Add(uint64(len(objs)))
}

// Available reports how many objects are currently free.
func (p *Pool[T]) Available() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// MinAvailable reports the pool's low-water mark: the fewest objects
// that were ever free at once. Capacity() - MinAvailable() is the most
// the pool's users ever held at one time — and, because the free list is
// a stack, the number of distinct objects ever handed out.
func (p *Pool[T]) MinAvailable() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.min
}

// Capacity reports the pool's fixed capacity.
func (p *Pool[T]) Capacity() int { return p.cap }

// Stats reports cumulative gets, puts, and allocation misses.
func (p *Pool[T]) Stats() (gets, puts, misses uint64) {
	return p.gets.Load(), p.puts.Load(), p.misses.Load()
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

// EnqueueBurst adds up to len(vs) descriptors, returning how many fit
// (DPDK's rte_ring_enqueue_burst semantics).
func (r *Ring[T]) EnqueueBurst(vs []T) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, v := range vs {
		if r.count == len(r.buf) {
			break
		}
		r.buf[r.tail] = v
		r.tail = (r.tail + 1) & (len(r.buf) - 1)
		r.count++
		n++
	}
	return n
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
