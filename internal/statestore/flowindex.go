package statestore

// flowindex.go is the on-disk half of the session table's cache story:
// a per-domain flow index holding every flow ever evicted from RAM.
// Writes append framed batches to <name>.flog (an appendLog, as the
// epoch WAL is: same framing, torn-tail recovery and failure rule);
// compaction merges the log into <name>.fidx, a flat array of
// fixed-size entries sorted by flow hash that lookups binary-search
// with ReadAt. Flows spilled since the last compaction are found
// through a RAM overlay: an array of (flow hash, log offset) pairs
// sorted by hash, one per flow, pointing at its newest entry in the
// log. Reads are overlay-then-index, and either way a ReadAt.
//
// What an index keeps resident is set by the store's constants, not by
// how many flows it holds, and each piece is made once, at its size:
//
//	overlay   defaultFlowCompactAfter + one spill batch of pairs, 16 B a
//	          flow (a compaction fires once that many entries are logged)
//	batch     one spill batch of pairs, sorted before it merges into the overlay
//	frame     one spill batch, encoded in place behind its frame header
//	merge     one mergeBufSize reader over the old .fidx and one
//	          mergeBufSize writer into the new one
//
// and nothing proportional to idxCount: a compaction streams the old
// index past the overlay, whose entries it reads back from the log, into
// the new file, entry by entry. Only a batch larger than any before it
// regrows them.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/packet"
	"repro/internal/session"
)

// flowEntrySize is the fixed on-disk entry: u64 hash, 13-byte tuple
// (src, dst, sport, dport, proto), u32 backend, u64 packets, u64 bytes.
const flowEntrySize = 8 + 13 + 4 + 8 + 8

func encodeFlowEntry(buf []byte, r session.SpillRecord) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Hash)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Tuple.SrcIP))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Tuple.DstIP))
	buf = binary.LittleEndian.AppendUint16(buf, r.Tuple.SrcPort)
	buf = binary.LittleEndian.AppendUint16(buf, r.Tuple.DstPort)
	buf = append(buf, r.Tuple.Proto)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Backend))
	buf = binary.LittleEndian.AppendUint64(buf, r.Packets)
	buf = binary.LittleEndian.AppendUint64(buf, r.Bytes)
	return buf
}

func decodeFlowEntry(b []byte) session.SpillRecord {
	return session.SpillRecord{
		Hash: binary.LittleEndian.Uint64(b),
		Tuple: packet.FiveTuple{
			SrcIP:   packet.IPv4(binary.LittleEndian.Uint32(b[8:])),
			DstIP:   packet.IPv4(binary.LittleEndian.Uint32(b[12:])),
			SrcPort: binary.LittleEndian.Uint16(b[16:]),
			DstPort: binary.LittleEndian.Uint16(b[18:]),
			Proto:   b[20],
		},
		Backend: packet.IPv4(binary.LittleEndian.Uint32(b[21:])),
		Packets: binary.LittleEndian.Uint64(b[25:]),
		Bytes:   binary.LittleEndian.Uint64(b[33:]),
	}
}

// mergeBufSize is the size of each of a flow-index compaction's two
// buffers, and of the store's epoch-compaction copy buffer.
const mergeBufSize = 64 << 10

// FlowIndex is one domain's durable flow set. It implements the session
// package's Spill contract.
type FlowIndex struct {
	store *Store
	name  string

	mu  sync.Mutex
	log *appendLog
	// overlay holds each flow spilled since the last compaction, sorted
	// by hash, with the offset of its newest entry in the spill log.
	// logged counts the entries the log holds, revisits included: a
	// compaction fires on it, so it bounds the log and the overlay both.
	overlay  []flowRef
	logged   int
	idx      file // nil until the first compaction
	idxCount int

	// Scratch kept across calls, under mu: a spill batch's frame and its
	// overlay pairs, sorted for the merge into the overlay (both made at
	// the largest batch yet), one entry read back from the log or the
	// index, and a compaction's two merge buffers (made by the first
	// compaction, Reset by each).
	frame  []byte
	batch  []flowRef
	ent    [flowEntrySize]byte
	mergeR *bufio.Reader
	mergeW *bufio.Writer
}

// flowRef is an overlay entry: a flow's hash and the log offset of its
// newest entry.
type flowRef struct {
	hash uint64
	off  int64
}

// compareRefs orders overlay pairs by hash, then by log offset, so the
// last of a hash's run is its newest entry.
func compareRefs(a, b flowRef) int {
	if c := cmp.Compare(a.hash, b.hash); c != 0 {
		return c
	}
	return cmp.Compare(a.off, b.off)
}

// FlowIndex opens (or creates) the named flow index inside the store,
// replaying the valid prefix of its spill log into the overlay. One
// instance per name is cached for the store's lifetime.
func (s *Store) FlowIndex(name string) (*FlowIndex, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("statestore: bad flow index name %q", name)
	}
	s.flowMu.Lock()
	defer s.flowMu.Unlock()
	if fi, ok := s.flows[name]; ok {
		return fi, nil
	}
	fi := &FlowIndex{store: s, name: name}
	if err := fi.open(); err != nil {
		return nil, err
	}
	s.flows[name] = fi
	return fi, nil
}

func (fi *FlowIndex) logPath() string {
	return filepath.Join(fi.store.cfg.Dir, fi.name+".flog")
}

func (fi *FlowIndex) idxPath() string {
	return filepath.Join(fi.store.cfg.Dir, fi.name+".fidx")
}

func (fi *FlowIndex) open() error {
	s := fi.store
	log, torn, err := openLog(s.fs, fi.logPath(), func(off int64, batch []byte) {
		if len(batch)%flowEntrySize != 0 {
			s.badEpochs.Add(1)
			return
		}
		fi.noteBatch(off, batch)
	})
	if err != nil {
		return err
	}
	s.tornRecords.Add(uint64(torn))
	fi.log = log
	// The compacted index, if one exists. A torn size (not a multiple of
	// the entry width) cannot happen through the rename barrier: it is
	// counted as torn and treated as absent rather than guessed at. An
	// index that cannot be opened or sized is an error, not an absence,
	// or the next compaction would write the overlay alone and lose every
	// flow the index held.
	idx, err := s.fs.OpenFile(fi.idxPath(), os.O_RDONLY)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	var st os.FileInfo
	if err == nil {
		if st, err = idx.Stat(); err != nil {
			idx.Close()
		}
	}
	if err != nil {
		log.close(false)
		return fmt.Errorf("statestore: index %s: %w", fi.name, err)
	}
	if st.Size()%flowEntrySize == 0 {
		fi.idx, fi.idxCount = idx, int(st.Size()/flowEntrySize)
	} else {
		s.tornRecords.Add(uint64(st.Size()))
		idx.Close()
	}
	return nil
}

// SpillFlows appends a batch of evicted flows (upsert by hash) and makes
// it durable per the store's fsync mode, under the spill log's failure
// rule (see appendLog): a failed batch leaves no trace, and a poisoned
// log refuses every later spill (the session table keeps the victims in
// RAM) until a compaction. Implements session.Spill.
func (fi *FlowIndex) SpillFlows(recs []session.SpillRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if fi.store.closed.Load() {
		return ErrClosed
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	// The entries are encoded once, behind a header the CRC over them
	// then fills in: the batch is held once, framed.
	size := frameHeaderSize + len(recs)*flowEntrySize
	if cap(fi.frame) < size {
		fi.frame = make([]byte, size)
	}
	frame := fi.frame[:size]
	payload := frame[frameHeaderSize:frameHeaderSize]
	for _, r := range recs {
		payload = encodeFlowEntry(payload, r)
	}
	sealFrame(frame[:frameHeaderSize], payload)
	at := fi.log.size
	if err := fi.log.append(frame); err != nil {
		return err
	}
	fi.noteBatch(at, payload)
	fi.store.spilled.Add(uint64(len(recs)))
	fi.store.persistBytes.Add(uint64(len(payload)))
	if fi.logged >= fi.store.flowCompactAfter {
		return fi.compactLocked()
	}
	if fi.store.cfg.Fsync != FsyncNone {
		// One fsync per eviction batch — already amortized over the
		// batch, so group coalescing buys nothing here.
		if err := fi.log.sync(); err != nil {
			return err
		}
		fi.store.fsyncs.Add(1)
	}
	return nil
}

// noteBatch merges into the overlay a batch whose frame the spill log
// holds at off. The batch's pairs are sorted by (hash, offset) and only
// the last of each hash is kept, so a later entry of one hash wins, as
// in replay. A flow the overlay holds takes its new offset in place; the
// new flows merge in from the back, into room the overlay already has.
func (fi *FlowIndex) noteBatch(off int64, batch []byte) {
	m := len(batch) / flowEntrySize
	fi.growLocked(m)
	b := fi.batch[:m]
	at := off + frameHeaderSize
	for i := range b {
		b[i] = flowRef{binary.LittleEndian.Uint64(batch[i*flowEntrySize:]), at + int64(i*flowEntrySize)}
	}
	slices.SortFunc(b, compareRefs)
	k := 0 // keep the last pair of each hash
	for i := range b {
		if i+1 == len(b) || b[i+1].hash != b[i].hash {
			b[k] = b[i]
			k++
		}
	}
	b = b[:k]
	o := fi.overlay
	k = 0 // keep the pairs of flows the overlay lacks
	for i, j := 0, 0; j < len(b); {
		switch {
		case i == len(o) || b[j].hash < o[i].hash:
			b[k] = b[j]
			k++
			j++
		case b[j].hash == o[i].hash:
			o[i].off = b[j].off
			i++
			j++
		default:
			i++
		}
	}
	n := len(o)
	o = o[:n+k]
	for i, j, d := n-1, k-1, n+k-1; j >= 0; d-- {
		if i >= 0 && o[i].hash > b[j].hash {
			o[d] = o[i]
			i--
		} else {
			o[d] = b[j]
			j--
		}
	}
	fi.overlay = o
	fi.logged += m
}

// growLocked makes room for a batch of m entries. The overlay is made
// at its bound, flowCompactAfter entries plus the batch (a compaction
// empties it once that many are logged), and regrows only for a batch
// larger than any before it; past the bound, with compaction off or
// failing, it grows as append would. The batch's pairs are made at the
// batch.
func (fi *FlowIndex) growLocked(m int) {
	if cap(fi.batch) < m {
		fi.batch = make([]flowRef, m)
	}
	need := len(fi.overlay) + m
	if need <= cap(fi.overlay) {
		return
	}
	size := max(need, 2*cap(fi.overlay))
	if after := fi.store.flowCompactAfter; after < math.MaxInt-m && need <= after+m {
		size = after + m
	}
	grown := make([]flowRef, len(fi.overlay), size)
	copy(grown, fi.overlay)
	fi.overlay = grown
}

// readLogEntryLocked reads into fi.ent the spill-log entry at off, which
// the overlay holds for hash, and fails if the entry there is another
// flow's.
func (fi *FlowIndex) readLogEntryLocked(hash uint64, off int64) error {
	if _, err := fi.log.f.ReadAt(fi.ent[:], off); err != nil {
		return fmt.Errorf("statestore: spill log of %s: %w", fi.name, err)
	}
	if got := binary.LittleEndian.Uint64(fi.ent[:]); got != hash {
		return fmt.Errorf("statestore: spill log of %s holds flow %#x where flow %#x was spilled", fi.name, got, hash)
	}
	return nil
}

// LookupFlow reads one flow record: the overlay's entry in the spill log
// first, then a binary search over the sorted on-disk index. Implements
// session.Spill.
func (fi *FlowIndex) LookupFlow(hash uint64) (session.SpillRecord, bool, error) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if i, ok := fi.findLocked(hash); ok {
		if err := fi.readLogEntryLocked(hash, fi.overlay[i].off); err != nil {
			return session.SpillRecord{}, false, err
		}
		fi.store.promotions.Add(1)
		return decodeFlowEntry(fi.ent[:]), true, nil
	}
	r, ok, err := fi.searchIdxLocked(hash)
	if ok {
		fi.store.promotions.Add(1)
	}
	return r, ok, err
}

// findLocked binary-searches the overlay for hash: its position, or
// where it would go.
func (fi *FlowIndex) findLocked(hash uint64) (int, bool) {
	return slices.BinarySearchFunc(fi.overlay, hash, func(r flowRef, h uint64) int { return cmp.Compare(r.hash, h) })
}

// searchIdxLocked binary-searches the compacted index file by hash,
// reading each probe into fi.ent (a buffer on the stack would escape
// through the file interface: an allocation per lookup).
func (fi *FlowIndex) searchIdxLocked(hash uint64) (session.SpillRecord, bool, error) {
	if fi.idx == nil || fi.idxCount == 0 {
		return session.SpillRecord{}, false, nil
	}
	buf := &fi.ent
	lo, hi := 0, fi.idxCount
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := fi.idx.ReadAt(buf[:], int64(mid)*flowEntrySize); err != nil {
			return session.SpillRecord{}, false, fmt.Errorf("statestore: index %s: %w", fi.name, err)
		}
		h := binary.LittleEndian.Uint64(buf[:])
		switch {
		case h == hash:
			return decodeFlowEntry(buf[:]), true, nil
		case h < hash:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return session.SpillRecord{}, false, nil
}

// FlowCount reports the number of distinct flows in the index. It
// compacts first when the overlay is non-empty, so the answer is exact
// (and the call is cheap when nothing changed). Implements session.Spill.
func (fi *FlowIndex) FlowCount() (int, error) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if len(fi.overlay) > 0 {
		if err := fi.compactLocked(); err != nil {
			return 0, err
		}
	}
	return fi.idxCount, nil
}

// Compact merges the overlay into the sorted index file and truncates
// the spill log, clearing its poison.
func (fi *FlowIndex) Compact() error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.compactLocked()
}

func (fi *FlowIndex) compactLocked() error {
	if fi.mergeR == nil {
		fi.mergeR = bufio.NewReaderSize(nil, mergeBufSize)
		fi.mergeW = bufio.NewWriterSize(nil, mergeBufSize)
	}
	count := 0
	merge := func(w io.Writer) (err error) {
		count, err = fi.mergeLocked(w)
		return err
	}
	// The old handle is let go only once the new one is open: until then
	// it and the overlay, both untouched, still answer every lookup and
	// feed the next compaction.
	idx, err := replaceFile(fi.store.fs, fi.idxPath(), merge, fi.store.cfg.Fsync != FsyncNone)
	if err != nil {
		return fmt.Errorf("statestore: compact %s: %w", fi.name, err)
	}
	if fi.idx != nil {
		fi.idx.Close()
	}
	fi.idx, fi.idxCount = idx, count
	fi.overlay, fi.logged = fi.overlay[:0], 0
	if err := fi.log.reset(); err != nil {
		return fmt.Errorf("statestore: compact %s: %w", fi.name, err)
	}
	fi.store.compactions.Add(1)
	return nil
}

// mergeLocked streams the old index and the overlay's records into w as
// one run sorted by hash, the overlay winning on an equal hash, and
// reports how many entries it wrote. An old entry that survives is
// copied as the bytes it is, never decoded.
func (fi *FlowIndex) mergeLocked(w io.Writer) (int, error) {
	br, bw, ov := fi.mergeR, fi.mergeW, fi.overlay
	bw.Reset(w)
	if fi.idxCount > 0 {
		br.Reset(io.NewSectionReader(fi.idx, 0, int64(fi.idxCount)*flowEntrySize))
	}
	n, k := 0, 0
	for i := 0; ; i++ {
		var old []byte
		var oldHash uint64
		if i < fi.idxCount {
			var err error
			if old, err = br.Peek(flowEntrySize); err != nil {
				return 0, fmt.Errorf("old index ends at entry %d of %d: %w", i, fi.idxCount, err)
			}
			oldHash = binary.LittleEndian.Uint64(old)
		}
		// Overlay records below the next old entry — all that are left,
		// once the old index is exhausted — read back from the spill log.
		for ; k < len(ov) && (old == nil || ov[k].hash < oldHash); k++ {
			if err := fi.readLogEntryLocked(ov[k].hash, ov[k].off); err != nil {
				return 0, err
			}
			if _, err := bw.Write(fi.ent[:]); err != nil {
				return 0, err
			}
			n++
		}
		if old == nil {
			return n, bw.Flush()
		}
		// A shadowed old entry is dropped; its overlay record goes out on
		// the next turn, below whatever follows.
		if k == len(ov) || ov[k].hash != oldHash {
			if _, err := bw.Write(old); err != nil {
				return 0, err
			}
			n++
		}
		br.Discard(flowEntrySize)
	}
}

func (fi *FlowIndex) close() error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	first := fi.log.close(fi.store.cfg.Fsync != FsyncNone)
	if fi.idx != nil {
		if err := fi.idx.Close(); err != nil && first == nil {
			first = err
		}
		fi.idx = nil
	}
	return first
}

var _ session.Spill = (*FlowIndex)(nil)
