// Package evict is the flow table the repository's capped tables share:
// session's RAM table and maglev's connection table. A Table keeps one
// entry per flow (its hash and its value, inline) in one dense array,
// finds an entry through an open-addressed index of array positions,
// and evicts with a second-chance clock whose ring is that same array.
//
// A table keeps a reference ("hot") bit beside each entry, set by Touch
// when the entry is used. Once the table grows past its limit it sweeps
// for victims, down to 7/8 of the limit in one batch: the hand walks the
// array, spares a hot entry (clearing its bit) and takes a cold one, by
// swapping it with the last resident entry. The victims wait past the
// resident entries until the table is told what became of them: Evict
// forgets them, Readmit puts them back at the end of the ring.
//
// session.Table spills its victims to disk (and readmits them if the
// spill fails); maglev.Balancer evicts its victims, because the lookup
// table re-hashes an evicted flow to the same backend unless the
// backend set changed.
package evict

import "math/bits"

// surplus reports how many entries a table holding resident of them must
// evict to keep its limit: none up to limit (or with no limit), else
// enough to get down to 7/8 of limit, so one sweep and one batch serve
// the next limit/8 inserts.
func surplus(resident, limit int) int {
	if limit <= 0 || resident <= limit {
		return 0
	}
	return resident - max(limit-limit/8, 1)
}

// chunkLen entries make one chunk of the array. Chunks are made as the
// table fills and kept until the table is dropped, so growing copies
// nothing and leaves no garbage; a table at its limit holds one
// partly-used chunk. 1024 entries of 56 bytes (session) are 7 whole
// pages and of 16 bytes (maglev) a size class, so neither is rounded
// up: a pointer-bearing chunk small enough for a size class would carry
// the allocator's 8-byte header into the next class (512 session
// entries take 32 KiB, not 28).
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
)

// entry is one flow: its hash and the table's value for it.
type entry[V any] struct {
	hash uint64
	val  V
}

// Table is a flow table keyed by flow hash. The zero value is an empty
// table with no limit. It is not safe for concurrent use: its owner
// calls it under its own lock.
//
// Entries are addressed by position, 0 to Len()-1 in ring order. A
// position is valid until the next Sweep or Reset; Add appends and
// moves nothing.
type Table[V any] struct {
	chunks []*[chunkLen]entry[V]
	// hot holds the reference bits, one per position. A separate bitmap
	// keeps an entry at its hash and value: a bool beside a 48-byte value
	// would pad each entry by 8 bytes.
	hot []uint64
	// index holds position+1 of the entry whose hash probes to each slot,
	// 0 for an empty slot; its length is a power of two, at most 3/4 used.
	index []int32
	shift uint // 64 - log2(len(index))

	n     int // resident entries: positions [0, n)
	out   int // the last sweep's victims: positions [n, n+out)
	hand  int
	limit int
}

// SetLimit caps the table at limit entries (none when limit <= 0). The
// index and the bookkeeping for a full table are made here, once, so a
// table filling to its limit and churning there never grows them.
func (t *Table[V]) SetLimit(limit int) {
	t.limit = limit
	if limit <= 0 {
		return
	}
	room := limit + 1 // an insert lands before the sweep it sets off
	t.growIndex(room)
	chunks := (room + chunkLen - 1) / chunkLen
	if cap(t.chunks) < chunks {
		t.chunks = append(make([]*[chunkLen]entry[V], 0, chunks), t.chunks...)
	}
	if cap(t.hot) < chunks*chunkLen/64 {
		t.hot = append(make([]uint64, 0, chunks*chunkLen/64), t.hot...)
	}
}

// Len reports the resident entries.
func (t *Table[V]) Len() int { return t.n }

// at returns the entry at position i.
func (t *Table[V]) at(i int) *entry[V] {
	return &t.chunks[i>>chunkShift][i&(chunkLen-1)]
}

// At returns the hash and value at position i.
func (t *Table[V]) At(i int) (uint64, *V) {
	e := t.at(i)
	return e.hash, &e.val
}

// Touch sets the hot bit of the entry at position i: it was used since
// the hand last passed.
func (t *Table[V]) Touch(i int) { t.setHot(i, true) }

// isHot reports position i's hot bit; setHot sets or clears it.
func (t *Table[V]) isHot(i int) bool { return t.hot[i>>6]&(1<<(i&63)) != 0 }

func (t *Table[V]) setHot(i int, hot bool) {
	if hot {
		t.hot[i>>6] |= 1 << (i & 63)
	} else {
		t.hot[i>>6] &^= 1 << (i & 63)
	}
}

// home is the index slot where h's probe starts (Fibonacci hashing, so
// flow hashes that differ only in their high bits still spread).
func (t *Table[V]) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> t.shift)
}

// Find returns the position of the entry with hash h, or -1.
func (t *Table[V]) Find(h uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.index) - 1
	for s := t.home(h); ; s = (s + 1) & mask {
		p := t.index[s]
		if p == 0 {
			return -1
		}
		if t.at(int(p-1)).hash == h {
			return int(p - 1)
		}
	}
}

// slot returns the index slot that holds position i, whose hash is h.
func (t *Table[V]) slot(h uint64, i int) int {
	mask := len(t.index) - 1
	s := t.home(h)
	for int(t.index[s]) != i+1 {
		s = (s + 1) & mask
	}
	return s
}

// place records position i, whose hash is h, in the first free slot of
// h's probe.
func (t *Table[V]) place(h uint64, i int) {
	mask := len(t.index) - 1
	s := t.home(h)
	for t.index[s] != 0 {
		s = (s + 1) & mask
	}
	t.index[s] = int32(i + 1)
}

// growIndex makes the index large enough for room entries at 3/4 load,
// re-placing every entry when it has to grow.
func (t *Table[V]) growIndex(room int) {
	size := 8
	for size*3/4 < room {
		size *= 2
	}
	if size <= len(t.index) {
		return
	}
	t.index = make([]int32, size)
	t.shift = uint(bits.LeadingZeros64(uint64(size))) + 1
	for i := 0; i < t.n+t.out; i++ {
		t.place(t.at(i).hash, i)
	}
}

// Add appends a cold entry with hash h and the zero value at the end of
// the ring and returns its position. h must not be resident, and the
// last sweep's victims must have been settled.
func (t *Table[V]) Add(h uint64) int {
	if t.out != 0 {
		panic("evict: Add before the last sweep's victims were settled")
	}
	i := t.n
	if i+1 > len(t.index)*3/4 {
		t.growIndex(i + 1)
	}
	if i>>chunkShift == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkLen]entry[V]))
		t.hot = append(t.hot, make([]uint64, chunkLen/64)...)
	}
	t.at(i).hash = h
	t.place(h, i)
	t.n++
	return i
}

// swap exchanges the entries, hot bits and index slots of positions i
// and j.
func (t *Table[V]) swap(i, j int) {
	if i == j {
		return
	}
	ei, ej := t.at(i), t.at(j)
	si, sj := t.slot(ei.hash, i), t.slot(ej.hash, j)
	*ei, *ej = *ej, *ei
	t.index[si], t.index[sj] = int32(j+1), int32(i+1)
	hi, hj := t.isHot(i), t.isHot(j)
	t.setHot(i, hj)
	t.setHot(j, hi)
}

// Sweep keeps the table within its limit. Up to the limit it returns 0.
// Past it, the hand moves until it has found enough victims to bring the
// table down to 7/8 of the limit, and Sweep returns how many it found.
// keep (the entry just inserted) is always spared and keeps its bit.
//
// A victim is swapped with the last resident entry, which the hand looks
// at next: past the entries under the hand, a sweep takes the newest
// cold ones, and old cold entries leave a few per sweep. The sweep is
// bounded: one pass over the ring may only clear bits and the second
// finds victims, so it returns fewer than the surplus only when there
// are no more to find.
//
// The victims are read with Victim and must be settled, by Evict or
// Readmit, before the table is used again.
func (t *Table[V]) Sweep(keep uint64) int {
	need := surplus(t.n, t.limit)
	for budget := 2*t.n + need + 1; t.out < need && t.n > 0 && budget > 0; budget-- {
		if t.hand >= t.n {
			t.hand = 0
		}
		if t.at(t.hand).hash == keep {
			t.hand++
			continue
		}
		if t.isHot(t.hand) {
			t.setHot(t.hand, false)
			t.hand++
			continue
		}
		t.swap(t.hand, t.n-1)
		t.n--
		t.out++
	}
	return t.out
}

// Victim returns the hash and value of the last sweep's k-th victim, in
// the order the hand took them.
func (t *Table[V]) Victim(k int) (uint64, *V) { return t.At(t.n + t.out - 1 - k) }

// Evict forgets the last sweep's victims, zeroing their values so the
// table holds nothing they pointed at.
func (t *Table[V]) Evict() {
	// Every victim leaves the index before any is zeroed: the backward
	// shift reads the hash of each entry it moves.
	for i := t.n; i < t.n+t.out; i++ {
		t.unindex(t.slot(t.at(i).hash, i))
	}
	for i := t.n; i < t.n+t.out; i++ {
		*t.at(i) = entry[V]{}
	}
	t.out = 0
}

// Readmit puts the last sweep's victims back at the end of the ring, cold,
// in the order the hand took them.
func (t *Table[V]) Readmit() {
	for i, j := t.n, t.n+t.out-1; i < j; i, j = i+1, j-1 {
		t.swap(i, j)
	}
	t.n += t.out
	t.out = 0
}

// unindex empties slot s and shifts back the entries probing past it
// that would no longer be found (linear probing's deletion: no
// tombstones, so a churning table's probes stay as short as its load).
func (t *Table[V]) unindex(s int) {
	mask := len(t.index) - 1
	for {
		t.index[s] = 0
		j := s
		for {
			j = (j + 1) & mask
			p := t.index[j]
			if p == 0 {
				return
			}
			// The entry at j stays unless its home lies cyclically
			// outside (s, j]: then the probe from its home would stop at
			// the hole in s.
			k := t.home(t.at(int(p - 1)).hash)
			if (s < j && (k <= s || k > j)) || (s > j && k <= s && k > j) {
				t.index[s] = p
				s = j
				break
			}
		}
	}
}

// Reset empties the table, keeping its memory and limit, and parks the
// hand.
func (t *Table[V]) Reset() {
	for i := 0; i < t.n+t.out; i++ {
		*t.at(i) = entry[V]{}
	}
	clear(t.hot)
	clear(t.index)
	t.n, t.out, t.hand = 0, 0, 0
}
