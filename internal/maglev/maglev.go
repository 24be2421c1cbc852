// Package maglev implements Google's Maglev consistent-hashing load
// balancer (Eisenbud et al., NSDI '16), the "realistic, but light-weight,
// network function" whose per-batch processing cost the paper's Figure 2
// compares isolation overhead against.
//
// The implementation follows the paper's NetBricks port: lookup-table
// construction with per-backend permutations, 5-tuple flow hashing, and a
// bounded connection table providing per-flow stickiness across backend
// set changes.
package maglev

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/evict"
	"repro/internal/netbricks"
	"repro/internal/packet"
)

// DefaultTableSize is a prime sized for good distribution with tens of
// backends (Maglev's small table size; the paper's deployment uses 65537).
const DefaultTableSize = 65537

// Errors returned by the balancer.
var (
	ErrNoBackends = errors.New("maglev: no backends")
	ErrNotPrime   = errors.New("maglev: table size must be prime")
	ErrDupBackend = errors.New("maglev: duplicate backend name")
	ErrUnparsed   = errors.New("maglev: packet not parsed")
)

// Backend is a service endpoint packets are steered to.
type Backend struct {
	Name string
	IP   packet.IPv4
}

// hash1/hash2 are independent FNV-1a-style hashes over a string, used for
// the offset and skip of each backend's permutation.
func hash1(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func hash2(s string) uint64 {
	var h uint64 = 2166136261
	for i := 0; i < len(s); i++ {
		h = h*16777619 + uint64(s[i])
	}
	// Finalize to decorrelate from hash1 on short keys.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Table is an immutable Maglev lookup table over a backend set.
type Table struct {
	backends []Backend
	entries  []int32 // slot -> backend index
}

// NewTable builds the lookup table using Maglev's permutation-population
// algorithm. size must be prime and larger than the number of backends.
func NewTable(backends []Backend, size int) (*Table, error) {
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	if !isPrime(size) {
		return nil, fmt.Errorf("size %d: %w", size, ErrNotPrime)
	}
	if size <= len(backends) {
		return nil, fmt.Errorf("maglev: table size %d must exceed backend count %d", size, len(backends))
	}
	names := make(map[string]bool, len(backends))
	for _, b := range backends {
		if names[b.Name] {
			return nil, fmt.Errorf("%q: %w", b.Name, ErrDupBackend)
		}
		names[b.Name] = true
	}

	m := uint64(size)
	n := len(backends)
	// Backend i's permutation is (offset + k*skip) mod m for k = 0, 1, …;
	// cursor[i] holds its next element and advances by add-and-wrap, not
	// a 64-bit division per probe (cursor < m and skip < m, so adding
	// skip overshoots m by less than m).
	cursor := make([]uint64, n)
	skip := make([]uint64, n)
	for i, b := range backends {
		cursor[i] = hash1(b.Name) % m
		skip[i] = hash2(b.Name)%(m-1) + 1
	}

	entries := make([]int32, size)
	// taken marks claimed slots, one bit each: the probes below land on
	// random slots, and 8 KiB of bits stays in L1 where 256 KiB of
	// entries does not.
	taken := make([]uint64, (size+63)/64)
	filled := 0
	// Round-robin: each backend claims the next unclaimed slot of its
	// permutation until the table is full. Terminates because size is
	// prime, so every permutation visits every slot.
	for filled < size {
		for i := 0; i < n && filled < size; i++ {
			var slot uint64
			c, sk := cursor[i], skip[i]
			for {
				slot = c
				// Branch-free wrap: a step is as likely to wrap as
				// not, and a mispredicted branch costs more than the
				// rest of the probe.
				d := c + sk - m                // negative as int64 iff no wrap
				c = d + m&uint64(int64(d)>>63) // add m back if so
				if taken[slot/64]&(1<<(slot%64)) == 0 {
					break
				}
			}
			cursor[i] = c
			taken[slot/64] |= 1 << (slot % 64)
			entries[slot] = int32(i)
			filled++
		}
	}
	return &Table{backends: append([]Backend(nil), backends...), entries: entries}, nil
}

// Size returns the number of table slots.
func (t *Table) Size() int { return len(t.entries) }

// index maps a flow hash to a backend's position in the table's set.
func (t *Table) index(flowHash uint64) int32 {
	return t.entries[flowHash%uint64(len(t.entries))]
}

// tables interns the lookup tables balancers use, keyed by (backends,
// size): a table is immutable and a pure function of its key, so every
// worker's balancer over one backend set shares one table (256 KiB at
// DefaultTableSize) and only the first builds it. The cap bounds memory
// for a caller cycling through backend sets (the oldest entry is
// dropped); real processes hold one set, or two during an update.
var (
	tablesMu sync.Mutex
	tables   []*Table
)

const tablesMax = 4

// tableFor returns the interned table over (backends, size), building it
// on first use. The build runs under tablesMu, so balancers constructed
// at once over one set wait for one build rather than each making one.
func tableFor(backends []Backend, size int) (*Table, error) {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	for _, t := range tables {
		if len(t.entries) == size && slices.Equal(t.backends, backends) {
			return t, nil
		}
	}
	t, err := NewTable(backends, size)
	if err != nil {
		return nil, err
	}
	if len(tables) == tablesMax {
		tables = slices.Delete(tables, 0, 1)
	}
	tables = append(tables, t)
	return t, nil
}

// ConnTableSize caps each balancer's connection table (one balancer per
// worker). Maglev keeps a bounded connection-tracking table per packet
// thread and sends any flow not in it through the consistent hash
// (Eisenbud et al., §3.3); so does this one. At the cap an insert evicts
// cold connections down to 7/8 of it, with the session table's
// second-chance clock (package evict). An evicted flow's next packet is
// re-hashed through the lookup table and reaches the backend it had
// unless the backend set changed since. A full table is 0.41 MB: 16-byte
// entries made 1024 at a time as it fills, a 128 KiB index and the hot
// bits (DESIGN.md states the formula). Its checkpoint is at most 0.3 MB.
const ConnTableSize = 1 << 14

// Balancer is the full load balancer: a lookup table plus a connection
// table giving established flows affinity to their original backend even
// after the backend set changes.
type Balancer struct {
	// mu is a plain mutex: Pick, the only hot caller, writes a counter
	// on every lookup, so no path would ever share a read lock.
	mu    sync.Mutex
	table *Table
	// conns maps a flow hash to where its backend sits in backends:
	// scalars only, so the collector never scans the entries. At most
	// ConnTableSize of them stay after an insert. A hit sets the entry's
	// hot bit and an insert leaves it clear; the bit is not checkpointed,
	// so a restored connection starts cold.
	conns evict.Table[int32]
	// backends interns every Backend a connection points at: the current
	// table's set, then any backend that has left it but is still named by
	// a connection made before UpdateBackends or brought back by Restore.
	// tableAt[i] is where the current table's backend i sits in it.
	backends []Backend
	tableAt  []int32
	// connBytes is the wire size of conns' entries, kept as they are
	// inserted and evicted so a checkpoint buffer is sized without a
	// counting walk.
	connBytes int

	// Stats.
	hits      uint64 // connection-table hits
	misses    uint64 // new flows steered by the lookup table
	evictions uint64 // connections evicted at the cap
}

// NewBalancer creates a balancer over the given backends. Its lookup
// table is the one every balancer over the same (backends, tableSize)
// shares.
func NewBalancer(backends []Backend, tableSize int) (*Balancer, error) {
	t, err := tableFor(backends, tableSize)
	if err != nil {
		return nil, err
	}
	b := &Balancer{table: t}
	b.conns.SetLimit(ConnTableSize)
	b.internTableLocked()
	return b, nil
}

// internTableLocked restarts the interned backends as exactly the current
// table's set. Only for a caller that has emptied conns (or is about to
// refill it): every index held there is void afterwards.
func (b *Balancer) internTableLocked() {
	b.backends = append(b.backends[:0], b.table.backends...)
	b.tableAt = b.tableAt[:0]
	for i := range b.backends {
		b.tableAt = append(b.tableAt, int32(i))
	}
}

// internLocked returns the index of the backend with this name and IP,
// appending it when no connection has pointed at it yet. The set is a
// handful of backends, so a scan beats a map.
func (b *Balancer) internLocked(name []byte, ip packet.IPv4) int32 {
	for i := range b.backends {
		if b.backends[i].IP == ip && b.backends[i].Name == string(name) {
			return int32(i)
		}
	}
	b.backends = append(b.backends, Backend{Name: string(name), IP: ip})
	return int32(len(b.backends) - 1)
}

// Pick returns the backend for the flow, consulting the connection table
// first (Maglev's connection tracking) and falling back to the consistent
// hash for new flows. Lookup, counter and (on a miss) insert and eviction
// are one critical section, so two Picks racing on a new flow cannot both
// insert it and connBytes counts each entry exactly once.
func (b *Balancer) Pick(t packet.FiveTuple) Backend {
	h := t.Hash()
	b.mu.Lock()
	var at int32
	if i := b.conns.Find(h); i >= 0 {
		b.hits++
		b.conns.Touch(i)
		_, c := b.conns.At(i)
		at = *c
	} else {
		at = b.tableAt[b.table.index(h)]
		_, c := b.conns.At(b.conns.Add(h))
		*c = at
		b.connBytes += b.connSizeLocked(at)
		b.misses++
		b.evictLocked(h)
	}
	be := b.backends[at]
	b.mu.Unlock()
	return be
}

// connSizeLocked is the checkpoint size of a connection to backends[at].
func (b *Balancer) connSizeLocked(at int32) int {
	return connFixedSize + len(b.backends[at].Name)
}

// evictLocked keeps the table at its cap: past ConnTableSize, the clock
// takes cold connections down to 7/8 of it in one sweep, sparing hot
// ones and keep, the connection just inserted.
func (b *Balancer) evictLocked(keep uint64) {
	n := b.conns.Sweep(keep)
	for k := 0; k < n; k++ {
		_, at := b.conns.Victim(k)
		b.connBytes -= b.connSizeLocked(*at)
	}
	b.conns.Evict()
	b.evictions += uint64(n)
}

// UpdateBackends swaps in the (shared) lookup table over a new backend
// set. Established flows keep flowing to their recorded backend
// (connection stickiness); only new flows see the new table. Other
// balancers keep the table they hold.
func (b *Balancer) UpdateBackends(backends []Backend) error {
	b.mu.Lock()
	size := b.table.Size()
	b.mu.Unlock()
	nt, err := tableFor(backends, size)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.table = nt
	b.tableAt = b.tableAt[:0]
	for _, be := range nt.backends {
		b.tableAt = append(b.tableAt, b.internLocked([]byte(be.Name), be.IP))
	}
	b.mu.Unlock()
	return nil
}

// ConnCount reports tracked connections.
func (b *Balancer) ConnCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.conns.Len()
}

// Stats reports connection-table hits and misses.
func (b *Balancer) Stats() (hits, misses uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.misses
}

// Evictions reports the connections this balancer has evicted at
// ConnTableSize. Like session.Table's spill counters it is the process's
// own: not checkpointed, kept across Reset and Restore.
func (b *Balancer) Evictions() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evictions
}

// Reset cold-starts the connection table: established-flow stickiness is
// lost, new flows fall back to the consistent hash.
func (b *Balancer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.conns.Reset()
	b.connBytes = 0
	b.internTableLocked()
	b.hits, b.misses = 0, 0
}

// Operator adapts the balancer into a NetBricks pipeline stage: for each
// parsed packet it picks a backend, rewrites the destination IP, and tags
// the packet with the backend index — the per-batch work measured as
// "maglev" in Figure 2.
type Operator struct {
	LB *Balancer
}

// Name implements netbricks.Operator.
func (Operator) Name() string { return "maglev" }

// ProcessBatch implements netbricks.Operator.
func (o Operator) ProcessBatch(batch *netbricks.Batch) error {
	for _, p := range batch.Pkts {
		if !p.Parsed() {
			if err := p.Parse(); err != nil {
				return fmt.Errorf("%w: %v", ErrUnparsed, err)
			}
		}
		be := o.LB.Pick(p.Tuple())
		p.SetDstIP(be.IP)
		p.UserTag = uint64(be.IP)
	}
	return nil
}

var _ netbricks.Operator = Operator{}
