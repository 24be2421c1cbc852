package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of a Histogram. Buckets are
// powers of two in nanoseconds: bucket 0 holds zero-duration samples,
// bucket i (i >= 1) holds samples in [2^(i-1), 2^i) ns, and the last
// bucket absorbs everything from ~1.07 s up. Exponential buckets over a
// fixed range is what lets the record path be two atomic adds and a
// bit-scan — no search, no allocation, no configuration.
const NumBuckets = 32

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use; embed it by value and register a pointer. Observe is safe for
// concurrent use and allocation-free.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one duration sample. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one sample given in nanoseconds.
func (h *Histogram) ObserveNanos(n int64) {
	if n < 0 {
		n = 0
	}
	idx := bits.Len64(uint64(n)) // 0 for 0; k for [2^(k-1), 2^k)
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// BucketUpper reports bucket i's inclusive upper bound. The last bucket
// is unbounded and reports the largest representable duration.
func BucketUpper(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(uint64(1)<<uint(i) - 1)
}

// HistogramSnapshot is a point-in-time copy of a histogram's cells,
// taken per the package's snapshot contract (each cell exact, the set
// not an atomic cut).
type HistogramSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets [NumBuckets]uint64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound of
// the first bucket whose cumulative count reaches q·total. With
// power-of-two buckets the estimate is within 2× of the true value,
// which is the resolution operators need to tell 10 µs from 10 ms.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}
