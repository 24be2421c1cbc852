// Package telemetry is the runtime's observability core: a registry of
// counters, gauges, and fixed-bucket latency histograms whose record
// path is pure atomics — no locks, no allocations — plus a ring-buffer
// flight recorder that keeps the last N domain events for post-mortem
// dumps when a domain exhausts its restart budget.
//
// The design splits the two costs the paper's argument hinges on:
//
//   - The record path (Counter.Add, Gauge.Set, Histogram.Observe,
//     Recorder.Record) is what the data plane executes per batch or per
//     payload. It is a handful of uncontended atomic operations on cells
//     the caller already owns — 0 allocs/op, proven by benchmark — so
//     instrumenting the hot path does not move the Figure 2 numbers.
//   - The read path (Registry.WritePrometheus, Registry.Snapshot,
//     Recorder.Dump) runs on scrape or fault, may take locks and
//     allocate freely, and never blocks a writer.
//
// Metric cells are plain value types (the zero value is ready to use) so
// they embed directly into the stats structs the runtime layers already
// carry; the Registry only attaches names and labels to pointers at
// registration time. Registration is concurrency-safe against a live
// record path: writers never touch the registry.
//
// # Snapshot contract
//
// Every Snapshot-style read in this codebase — domain.Supervisor.Snapshot,
// netbricks.ShardedRunner.Snapshot, Registry.Snapshot — follows one
// contract, stated here once:
//
//   - Counters are monotonically increasing atomics read with Load; a
//     snapshot is a point-in-time copy that is exact per field but NOT
//     atomic across fields (a snapshot taken during a live run may show
//     e.g. a send that has no matching receive yet).
//   - Gauges (mailbox depth, pool occupancy, lifecycle state) are
//     instantaneous values that may move between two field reads.
//   - Taking a snapshot never blocks, delays, or allocates on the record
//     path; it is always safe during a live run.
//
// Aggregations over per-worker or per-domain snapshots (the merge
// helpers domain.MergeSnapshots and netbricks.RunStats.Merge) inherit
// the same guarantee: each input is point-in-time, the sum is not a
// consistent cut.
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing counter. The zero value is ready
// to use; embed it by value in a stats struct and register a pointer to
// it. All methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (depth, occupancy, balance).
// The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
