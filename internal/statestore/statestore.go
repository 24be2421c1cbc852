package statestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// FsyncMode selects the durability level of epoch and spill appends.
type FsyncMode int

const (
	// FsyncGroup (the default) group-commits: every append requests a
	// sync, but concurrent appenders coalesce onto one fsync — a worker
	// whose record was covered by a sibling's in-flight sync returns
	// without issuing its own. Durability per epoch, ~one fsync per
	// batch of concurrent epochs.
	FsyncGroup FsyncMode = iota
	// FsyncAlways issues one fsync per append, under the append lock —
	// strict ordering, maximum latency.
	FsyncAlways
	// FsyncNone never syncs; durability is whatever the kernel flushed.
	// Crash recovery still works (longest valid prefix), it just may
	// recover an older epoch.
	FsyncNone
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncGroup:
		return "group"
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
}

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "group":
		return FsyncGroup, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("statestore: unknown fsync mode %q (want group, always, or none)", s)
	}
}

// Config parameterizes Open.
type Config struct {
	// Dir is the store directory; created if missing.
	Dir string
	// Fsync is the durability mode for epoch and spill appends.
	Fsync FsyncMode
	// CompactAfter is the WAL size (bytes) past which an append triggers
	// inline compaction into base.db. Positive fixes the threshold;
	// negative disables compaction. Zero (the default) adapts it to the
	// workload: autoCompactGenerations × the observed live-state size
	// (domain count × epoch payload size, tracked as epochs land),
	// clamped to [autoCompactMinBytes, autoCompactMaxBytes]. A fixed
	// byte threshold compacts every couple of epochs when many domains
	// write large tokens and near-never for one small domain; scaling by
	// live-state size makes the cadence a constant number of whole-state
	// generations either way.
	CompactAfter int64
	// FlowCompactAfter is the per-index overlay entry count past which a
	// spill batch triggers flow-index compaction. Default 8192; negative
	// disables.
	FlowCompactAfter int
}

// epochRec is the in-memory view of a domain's newest durable epoch.
// token is shared, never copied: it is the slice PersistEpoch was handed
// (or a view into buf), LastEpoch hands it out, and nobody writes to it
// while it is in the map. The entry that replaces it under mu is the
// store letting it go, which SwapEpoch reports to its caller.
type epochRec struct {
	seq   uint64
	at    int64 // unix nanos, informational
	token []byte
	buf   []byte // replay buffer token points into; nil once this process persisted
}

// walFile is what the store needs of its WAL: *os.File in production, a
// failing writer in tests.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Store is the durable epoch store: an append-only WAL of checkpoint
// tokens plus a compacted base image, with per-domain flow indexes
// hanging off it. One Store serves every domain of a process; appends
// from concurrent workers serialize on mu and coalesce their fsyncs.
type Store struct {
	cfg Config

	mu        sync.Mutex // guards wal, walSize, walErr, epochs, liveBytes, compaction
	wal       walFile
	walSize   int64
	walErr    error // set once the WAL's tail is in an unknown state; every later append returns it
	epochs    map[string]epochRec
	liveBytes int64 // sum of current epoch token sizes across domains

	// Group commit: appended counts records written, synced the highest
	// count known flushed. syncMu serializes the fsync itself.
	appended atomic.Uint64
	syncMu   sync.Mutex
	synced   atomic.Uint64

	flowMu sync.Mutex
	flows  map[string]*FlowIndex

	// hdrs recycles epoch frame headers (*[]byte): one is built outside
	// mu per append, because its CRC runs over the whole token.
	hdrs sync.Pool

	closed atomic.Bool

	// Telemetry cells (registered via RegisterMetrics).
	persisted    telemetry.Counter
	persistBytes telemetry.Counter
	fsyncs       telemetry.Counter
	compactions  telemetry.Counter
	tornRecords  telemetry.Counter
	badEpochs    telemetry.Counter
	spilled      telemetry.Counter
	promotions   telemetry.Counter
}

// Stats is a point-in-time copy of the store's counters.
type Stats struct {
	Epochs       int    // domains with a durable epoch
	Persisted    uint64 // epoch records appended by this process
	PersistBytes uint64 // payload bytes appended (epochs + spills)
	Fsyncs       uint64
	Compactions  uint64
	TornRecords  uint64 // torn-tail bytes truncated + undecodable records dropped at open
	Spilled      uint64 // flow records spilled to indexes
	Promotions   uint64 // flow records read back out of indexes
	WALBytes     int64
}

const (
	walName  = "wal.log"
	baseName = "base.db"

	defaultFlowCompactAfter = 8192

	// Adaptive compaction (Config.CompactAfter == 0): compact once the
	// WAL holds about this many generations of the whole live state. The
	// clamp floor keeps a single tiny domain from compacting every few
	// appends; the ceiling bounds replay time however large the state.
	autoCompactGenerations = 64
	autoCompactMinBytes    = 256 << 10
	autoCompactMaxBytes    = 256 << 20
)

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("statestore: closed")

// Open opens (or creates) the store rooted at cfg.Dir, replaying the
// longest valid prefix of the WAL over the compacted base image and
// truncating any torn tail. After Open returns, LastEpoch serves the
// newest durable epoch per domain.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("statestore: Config.Dir is required")
	}
	if cfg.FlowCompactAfter == 0 {
		cfg.FlowCompactAfter = defaultFlowCompactAfter
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	s := &Store{
		cfg:    cfg,
		epochs: make(map[string]epochRec),
		flows:  make(map[string]*FlowIndex),
		hdrs:   sync.Pool{New: func() any { return new([]byte) }},
	}
	// The compacted image first. A torn base tail (possible only if a
	// crash beat the rename barrier, which the write path prevents)
	// degrades to the valid prefix.
	if _, _, err := s.replayFile(filepath.Join(cfg.Dir, baseName)); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(cfg.Dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	s.wal = wal
	return s, nil
}

// scanLogFile streams the log at path through fn (see scanFrames) and
// reports the length of its longest valid prefix and the file's size. A
// missing file is an empty log.
func scanLogFile(path string, fn func(rec []byte) (spare []byte)) (valid, size int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("statestore: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("statestore: %w", err)
	}
	valid, err = scanFrames(f, st.Size(), fn)
	if err != nil {
		return 0, 0, fmt.Errorf("statestore: replay %s: %w", filepath.Base(path), err)
	}
	return valid, st.Size(), nil
}

// replayFile applies the longest valid prefix of the epoch log at path
// and reports that prefix's length and the file's size, counting what
// follows the prefix as torn.
func (s *Store) replayFile(path string) (valid, size int64, err error) {
	valid, size, err = scanLogFile(path, s.applyEpochRecord)
	if err == nil && valid < size {
		s.tornRecords.Add(uint64(size - valid))
	}
	return valid, size, err
}

// replayWAL applies the WAL's longest valid prefix and truncates the
// file to it, so the next append never splices new frames onto a torn
// tail. Only the newest record per domain stays in memory.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.cfg.Dir, walName)
	valid, size, err := s.replayFile(path)
	if err != nil {
		return err
	}
	if valid < size {
		if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("statestore: truncate torn tail: %w", err)
		}
	}
	s.walSize = valid
	s.liveBytes = 0
	for _, rec := range s.epochs {
		s.liveBytes += int64(len(rec.token))
	}
	return nil
}

// applyEpochRecord merges one replayed record into the epoch map,
// keeping rec when it is the domain's newest; newer sequence numbers win
// (replay order and seq order agree for a single writer, but the base +
// WAL merge needs the comparison). Records that frame-decode but fail
// epoch decoding are counted and skipped, never fatal: one bad record
// must not cost the epochs around it. The return value is scanFrames'
// spare buffer: rec when it was not kept, else the buffer it superseded.
func (s *Store) applyEpochRecord(rec []byte) (spare []byte) {
	name, seq, at, token, err := decodeEpoch(rec)
	if err != nil {
		s.badEpochs.Add(1)
		return rec
	}
	cur, ok := s.epochs[name]
	if ok && cur.seq >= seq {
		return rec
	}
	s.epochs[name] = epochRec{seq: seq, at: at, token: token, buf: rec}
	return cur.buf
}

// compactThresholdLocked resolves the effective WAL compaction threshold
// for this append. Caller holds s.mu.
func (s *Store) compactThresholdLocked() int64 {
	if s.cfg.CompactAfter > 0 {
		return s.cfg.CompactAfter
	}
	th := autoCompactGenerations * (s.liveBytes + int64(len(s.epochs))*frameHeaderSize)
	if th < autoCompactMinBytes {
		return autoCompactMinBytes
	}
	if th > autoCompactMaxBytes {
		return autoCompactMaxBytes
	}
	return th
}

// Epoch payload layout (inside a frame):
//
//	u8  version (1)
//	u16 name length, name bytes
//	u64 seq
//	i64 unix nanos
//	u32 token length, token bytes
const epochVersion = 1

// epochFrameHeader builds, in hdr's memory when it is large enough, the
// bytes that precede token in its frame: the frame header (length and
// CRC-32C of record header + token, the CRC fed incrementally so the two
// are never joined) and the record header.
func epochFrameHeader(hdr []byte, name string, seq uint64, at int64, token []byte) ([]byte, error) {
	recLen := 1 + 2 + len(name) + 8 + 8 + 4 + len(token)
	if len(name) > 0xffff || recLen > MaxFrame {
		return nil, fmt.Errorf("statestore: epoch of %q (%d-byte token) does not fit a frame", name, len(token))
	}
	hdr = append(hdr[:0], make([]byte, frameHeaderSize)...)
	hdr = append(hdr, epochVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(at))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(token)))
	binary.LittleEndian.PutUint32(hdr, uint32(recLen))
	sum := crc32.Update(crc32.Checksum(hdr[frameHeaderSize:], castagnoli), castagnoli, token)
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	return hdr, nil
}

// decodeEpoch parses one epoch record; token is a subslice of rec.
func decodeEpoch(rec []byte) (name string, seq uint64, at int64, token []byte, err error) {
	bad := func(what string) (string, uint64, int64, []byte, error) {
		return "", 0, 0, nil, fmt.Errorf("statestore: bad epoch record: %s", what)
	}
	if len(rec) < 1 || rec[0] != epochVersion {
		return bad("version")
	}
	rec = rec[1:]
	if len(rec) < 2 {
		return bad("name length")
	}
	nameLen := int(binary.LittleEndian.Uint16(rec))
	rec = rec[2:]
	if len(rec) < nameLen+8+8+4 {
		return bad("short body")
	}
	name = string(rec[:nameLen])
	rec = rec[nameLen:]
	seq = binary.LittleEndian.Uint64(rec)
	at = int64(binary.LittleEndian.Uint64(rec[8:]))
	tokenLen := int(binary.LittleEndian.Uint32(rec[16:]))
	rec = rec[20:]
	if len(rec) != tokenLen {
		return bad("token length")
	}
	token = rec
	if name == "" {
		return bad("empty name")
	}
	return name, seq, at, token, nil
}

// PersistEpoch appends one checkpoint epoch for the named domain and
// makes it durable per the fsync mode. seq must be monotonic per name
// (the domain runtime's epoch sequence); at is stamped by the store.
// This is the domain.Persister contract, ownership rule included: the
// frame is written around payload without copying it, and the store
// keeps payload itself as the domain's newest epoch, so the caller must
// not write to it while the store holds it — which a caller of this
// method never learns has ended; SwapEpoch is the form that says.
func (s *Store) PersistEpoch(name string, seq uint64, payload []byte) error {
	_, err := s.SwapEpoch(name, seq, payload)
	return err
}

// SwapEpoch is PersistEpoch that also returns the payload the store let
// go: the slice an earlier call for name was handed (or the one replayed
// at Open) and that payload replaced as the domain's newest epoch. The
// swap happens under mu, so the answer is exact — no compaction or
// LastEpoch can reach released afterwards — and the store never touches
// it again. released is nil when name had no epoch and on every error,
// including a failed fsync after the swap: the caller then just does not
// learn what was let go.
func (s *Store) SwapEpoch(name string, seq uint64, payload []byte) (released []byte, err error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	at := time.Now().UnixNano()
	hp := s.hdrs.Get().(*[]byte)
	defer s.hdrs.Put(hp)
	hdr, err := epochFrameHeader(*hp, name, seq, at, payload)
	if err != nil {
		return nil, err
	}
	*hp = hdr

	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if err := s.appendLocked(hdr, payload); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	released = s.epochs[name].token
	s.liveBytes += int64(len(payload)) - int64(len(released))
	s.epochs[name] = epochRec{seq: seq, at: at, token: payload}
	myRec := s.appended.Add(1)
	s.persisted.Add(1)
	s.persistBytes.Add(uint64(len(payload)))
	switch {
	case s.cfg.CompactAfter >= 0 && s.walSize >= s.compactThresholdLocked():
		// Compaction writes base.db through a rename barrier and then
		// truncates the WAL, so it subsumes this record's durability.
		err = s.compactLocked()
		s.mu.Unlock()
	case s.cfg.Fsync == FsyncAlways:
		err = s.wal.Sync()
		s.fsyncs.Add(1)
		if err == nil {
			s.advanceSynced(myRec)
		} else {
			err = fmt.Errorf("statestore: fsync: %w", err)
		}
		s.mu.Unlock()
	case s.cfg.Fsync == FsyncGroup:
		s.mu.Unlock()
		err = s.syncTo(myRec)
	default:
		s.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	return released, nil
}

// cutPartialFrame undoes a failed append to the log f (what names it in
// errors): a failed or short write may leave part of a frame on disk,
// where the next append would land behind it and longest-valid-prefix
// replay could never reach it, so f is cut back to good, its length
// before the append. It returns err when the cut worked, and otherwise
// sticky, the error the log's owner must give every later append: the
// tail is in an unknown state and nothing may be written behind it.
func cutPartialFrame(f walFile, good int64, what string, err error) (ret, sticky error) {
	if terr := f.Truncate(good); terr != nil {
		sticky = fmt.Errorf("statestore: %s unusable: %w; cutting the partial frame failed: %v", what, err, terr)
		return sticky, sticky
	}
	return err, nil
}

// appendLocked writes one frame to the WAL; a failed write is undone
// (cutPartialFrame) before the lock is released, and if that fails too
// the store stops appending for good. Caller holds s.mu.
func (s *Store) appendLocked(hdr, payload []byte) error {
	if s.walErr != nil {
		return s.walErr
	}
	err := writeFrame(s.wal, hdr, payload)
	if err == nil {
		s.walSize += int64(len(hdr) + len(payload))
		return nil
	}
	err, s.walErr = cutPartialFrame(s.wal, s.walSize, "wal", fmt.Errorf("statestore: append epoch: %w", err))
	return err
}

// syncTo ensures every record up to and including rec is flushed: the
// group-commit path. A caller whose record was covered by a concurrent
// fsync returns without issuing one.
func (s *Store) syncTo(rec uint64) error {
	if s.synced.Load() >= rec {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced.Load() >= rec {
		return nil // a sibling's sync covered us while we waited
	}
	covered := s.appended.Load()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("statestore: fsync: %w", err)
	}
	s.fsyncs.Add(1)
	s.advanceSynced(covered)
	return nil
}

// advanceSynced raises the synced watermark monotonically.
func (s *Store) advanceSynced(to uint64) {
	for {
		cur := s.synced.Load()
		if cur >= to || s.synced.CompareAndSwap(cur, to) {
			return
		}
	}
}

// LastEpoch returns the newest durable epoch for the named domain: the
// token payload, its sequence number, and whether one exists. The
// payload is the store's own slice, shared and read-only. This is the
// domain.Persister contract.
func (s *Store) LastEpoch(name string) ([]byte, uint64, bool, error) {
	if s.closed.Load() {
		return nil, 0, false, ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.epochs[name]
	if !ok {
		return nil, 0, false, nil
	}
	return rec.token, rec.seq, true, nil
}

// EpochCount reports how many domains have a durable epoch.
func (s *Store) EpochCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.epochs)
}

// Names returns the domains with a durable epoch, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.epochs))
	for name := range s.epochs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Compact rewrites base.db as the newest epoch per domain and truncates
// the WAL. Crash-safe: the new base is fully written and fsynced before
// a rename swaps it in, the directory entry is fsynced before the WAL is
// truncated, so every instant of the sequence recovers to either the old
// (base + WAL) or the new (base alone) image — never less.
func (s *Store) Compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	names := make([]string, 0, len(s.epochs))
	for name := range s.epochs {
		names = append(names, name)
	}
	sort.Strings(names)
	base := filepath.Join(s.cfg.Dir, baseName)
	err := atomicWriteFile(base, func(w io.Writer) error {
		// One frame at a time, each token written from where it lives.
		var hdr []byte
		for _, name := range names {
			rec := s.epochs[name]
			var err error
			hdr, err = epochFrameHeader(hdr, name, rec.seq, rec.at, rec.token)
			if err == nil {
				err = writeFrame(w, hdr, rec.token)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, s.cfg.Fsync != FsyncNone)
	if err != nil {
		return fmt.Errorf("statestore: compact: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("statestore: compact: truncate wal: %w", err)
	}
	s.walSize = 0
	s.compactions.Add(1)
	// Everything appended so far is now durable via the base image.
	s.advanceSynced(s.appended.Load())
	return nil
}

// atomicWriteFile fills path through a temp file + rename, with file and
// directory fsyncs when sync is true — the standard torn-write barrier.
// write produces the contents.
func atomicWriteFile(path string, write func(w io.Writer) error, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after the rename succeeds
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	if sync {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		if err := d.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// WALSize reports the current WAL length in bytes.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// StatsSnapshot returns a point-in-time copy of the store's counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	epochs := len(s.epochs)
	wal := s.walSize
	s.mu.Unlock()
	return Stats{
		Epochs:       epochs,
		Persisted:    s.persisted.Load(),
		PersistBytes: s.persistBytes.Load(),
		Fsyncs:       s.fsyncs.Load(),
		Compactions:  s.compactions.Load(),
		TornRecords:  s.tornRecords.Load() + s.badEpochs.Load(),
		Spilled:      s.spilled.Load(),
		Promotions:   s.promotions.Load(),
		WALBytes:     wal,
	}
}

// RegisterMetrics exports the store's cells under the given labels.
func (s *Store) RegisterMetrics(reg telemetry.Registrar, labels telemetry.Labels) {
	reg.RegisterCounter("statestore_epochs_persisted_total", labels, &s.persisted)
	reg.RegisterCounter("statestore_persist_bytes_total", labels, &s.persistBytes)
	reg.RegisterCounter("statestore_fsyncs_total", labels, &s.fsyncs)
	reg.RegisterCounter("statestore_compactions_total", labels, &s.compactions)
	reg.RegisterCounter("statestore_torn_records_total", labels, &s.tornRecords)
	reg.RegisterCounter("statestore_flows_spilled_total", labels, &s.spilled)
	reg.RegisterCounter("statestore_flow_promotions_total", labels, &s.promotions)
	reg.RegisterGaugeFunc("statestore_wal_bytes", labels, func() float64 {
		return float64(s.WALSize())
	})
}

// Close flushes and closes the WAL and every open flow index. Further
// operations return ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var first error
	s.mu.Lock()
	if s.wal != nil {
		if s.cfg.Fsync != FsyncNone {
			if err := s.wal.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := s.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.mu.Unlock()
	s.flowMu.Lock()
	for _, fi := range s.flows {
		if err := fi.close(); err != nil && first == nil {
			first = err
		}
	}
	s.flowMu.Unlock()
	return first
}
