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
	// FsyncNone never syncs; durability is whatever the kernel flushed.
	// Crash recovery still works (longest valid prefix), it just may
	// recover an older epoch. Tests use it to keep fsync latency out of
	// what they time or repeat.
	FsyncNone
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncGroup:
		return "group"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
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

// epochRec says where a domain's newest durable epoch is, not what it
// holds: the file (base.db or wal.log), the offset of its frame there,
// and the offset and length of its token, which is the frame's tail.
// LastEpoch and compaction read the bytes back from the file.
type epochRec struct {
	seq    uint64
	inBase bool
	frame  int64
	token  int64
	length int64
}

// Store is the durable epoch store: an append-only WAL of checkpoint
// tokens plus a compacted base image, with per-domain flow indexes
// hanging off it. One Store serves every domain of a process; appends
// from concurrent workers serialize on mu and coalesce their fsyncs.
type Store struct {
	cfg Config
	fs  fileSystem

	mu        sync.Mutex // guards wal's appends and reset, base, epochs, liveBytes, copyBuf, compaction
	wal       *appendLog
	base      file // nil until base.db exists
	epochs    map[string]epochRec
	liveBytes int64  // sum of current epoch token sizes across domains
	copyBuf   []byte // compaction's frame copy buffer, made by the first compaction

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
func Open(cfg Config) (*Store, error) { return open(cfg, osFS{}) }

func open(cfg Config, fs fileSystem) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("statestore: Config.Dir is required")
	}
	if cfg.FlowCompactAfter == 0 {
		cfg.FlowCompactAfter = defaultFlowCompactAfter
	}
	if err := fs.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	s := &Store{
		cfg:    cfg,
		fs:     fs,
		epochs: make(map[string]epochRec),
		flows:  make(map[string]*FlowIndex),
		hdrs:   sync.Pool{New: func() any { return new([]byte) }},
	}
	// The compacted image first. A torn base tail (possible only if a
	// crash beat the rename barrier, which the write path prevents)
	// degrades to the valid prefix.
	base, err := fs.OpenFile(filepath.Join(cfg.Dir, baseName), os.O_RDONLY)
	switch {
	case err == nil:
		s.base = base
		valid, size, err := scanFile(base, func(off int64, rec []byte) { s.applyEpochRecord(true, off, rec) })
		if err != nil {
			base.Close()
			return nil, err
		}
		s.tornRecords.Add(uint64(size - valid))
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("statestore: %w", err)
	}
	wal, torn, err := openLog(fs, filepath.Join(cfg.Dir, walName), func(off int64, rec []byte) { s.applyEpochRecord(false, off, rec) })
	if err != nil {
		if s.base != nil {
			s.base.Close()
		}
		return nil, err
	}
	s.wal = wal
	s.tornRecords.Add(uint64(torn))
	for _, rec := range s.epochs {
		s.liveBytes += rec.length
	}
	return s, nil
}

// applyEpochRecord notes where one replayed record is when it is its
// domain's newest; newer sequence numbers win (replay order and seq order
// agree for a single writer, but the base + WAL merge needs the
// comparison). Records that frame-decode but fail epoch decoding are
// counted and skipped, never fatal: one bad record must not cost the
// epochs around it.
func (s *Store) applyEpochRecord(inBase bool, off int64, rec []byte) {
	name, seq, _, token, err := decodeEpoch(rec)
	if err != nil {
		s.badEpochs.Add(1)
		return
	}
	if cur, ok := s.epochs[name]; ok && cur.seq >= seq {
		return
	}
	at := off + frameHeaderSize + int64(len(rec)-len(token))
	s.epochs[name] = epochRec{seq: seq, inBase: inBase, frame: off, token: at, length: int64(len(token))}
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
// makes it durable per the fsync mode. seq must be newer than the
// domain's newest epoch (the domain runtime's epoch sequence): an older
// or equal one is refused, as replay would discard it. The store stamps
// the time. This is the domain.Persister contract: payload is borrowed
// for the call only — the frame is written around it without copying
// it, and the store keeps where the epoch is, not its bytes — so the
// caller may write to payload as soon as PersistEpoch returns, whatever
// it returned.
func (s *Store) PersistEpoch(name string, seq uint64, payload []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	hp := s.hdrs.Get().(*[]byte)
	defer s.hdrs.Put(hp)
	hdr, err := epochFrameHeader(*hp, name, seq, time.Now().UnixNano(), payload)
	if err != nil {
		return err
	}
	*hp = hdr

	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	cur, ok := s.epochs[name]
	if ok && seq <= cur.seq {
		s.mu.Unlock()
		return fmt.Errorf("statestore: epoch %d of %q is not newer than the stored %d", seq, name, cur.seq)
	}
	frame := s.wal.size
	if err := s.wal.append(hdr, payload); err != nil {
		s.mu.Unlock()
		return err
	}
	s.liveBytes += int64(len(payload)) - cur.length
	s.epochs[name] = epochRec{seq: seq, frame: frame, token: frame + int64(len(hdr)), length: int64(len(payload))}
	myRec := s.appended.Add(1)
	s.persisted.Add(1)
	s.persistBytes.Add(uint64(len(payload)))
	switch {
	case s.cfg.CompactAfter >= 0 && s.wal.size >= s.compactThresholdLocked():
		// Compaction writes base.db through a rename barrier and then
		// truncates the WAL, so it subsumes this record's durability.
		err = s.compactLocked()
		s.mu.Unlock()
	case s.cfg.Fsync == FsyncGroup:
		s.mu.Unlock()
		err = s.syncTo(myRec)
	default:
		s.mu.Unlock()
	}
	return err
}

// syncTo ensures every record up to and including rec is flushed: the
// group-commit path. A caller whose record was covered by a concurrent
// fsync returns without issuing one; one whose record a failed fsync
// covered gets that failure, the WAL's poison, and issues none either.
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
	if err := s.wal.sync(); err != nil {
		return err
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
// payload is read from the store's files into a fresh slice the caller
// owns; a read that fails, or bytes that are not that epoch's frame,
// are an error. This is the domain.Persister contract.
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
	frame := make([]byte, rec.token+rec.length-rec.frame)
	if err := s.readEpochLocked(name, rec, frame, nil); err != nil {
		return nil, 0, false, fmt.Errorf("statestore: read epoch %d of %q: %w", rec.seq, name, err)
	}
	return frame[rec.token-rec.frame:], rec.seq, true, nil
}

// readEpochLocked reads the frame rec locates, len(buf) bytes at a time,
// handing each chunk to emit (when not nil), and checks that the frame is
// that epoch: its length, its record header (name, seq, token length) and
// its CRC. A stale location therefore fails the read instead of yielding
// another epoch's bytes. buf must hold at least the frame's bytes before
// the token. Caller holds s.mu.
func (s *Store) readEpochLocked(name string, rec epochRec, buf []byte, emit func([]byte) error) error {
	src := s.wal.f
	if rec.inBase {
		src = s.base
	}
	size := rec.token + rec.length - rec.frame
	var want, sum uint32
	for done := int64(0); done < size; {
		chunk := buf[:min(int64(len(buf)), size-done)]
		if _, err := src.ReadAt(chunk, rec.frame+done); err != nil {
			return err
		}
		body := chunk
		if done == 0 {
			head := chunk[:rec.token-rec.frame]
			if !isEpochHead(head, name, rec.seq, rec.length) {
				return errors.New("the bytes there are not this epoch's frame")
			}
			want = binary.LittleEndian.Uint32(head[4:])
			body = chunk[frameHeaderSize:]
		}
		sum = crc32.Update(sum, castagnoli, body)
		if emit != nil {
			if err := emit(chunk); err != nil {
				return err
			}
		}
		done += int64(len(chunk))
	}
	if sum != want {
		return errors.New("the frame there fails its CRC")
	}
	return nil
}

// isEpochHead reports whether head, a frame's bytes up to its token,
// frames epoch seq of name with a token of length bytes.
func isEpochHead(head []byte, name string, seq uint64, length int64) bool {
	r := head[frameHeaderSize:]
	n := len(name)
	return len(r) == 1+2+n+8+8+4 &&
		int64(binary.LittleEndian.Uint32(head)) == int64(len(r))+length &&
		r[0] == epochVersion &&
		int(binary.LittleEndian.Uint16(r[1:])) == n &&
		string(r[3:3+n]) == name &&
		binary.LittleEndian.Uint64(r[3+n:]) == seq &&
		int64(binary.LittleEndian.Uint32(r[3+n+16:])) == length
}

// EpochCount reports how many domains have a durable epoch.
func (s *Store) EpochCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.epochs)
}

// Compact rewrites base.db as the newest epoch per domain and truncates
// the WAL. Crash-safe: the new base is fully written and fsynced before
// a rename swaps it in, the directory entry is fsynced before the WAL is
// truncated, so every instant of the sequence recovers to either the old
// (base + WAL) or the new (base alone) image — never less. A compaction
// that succeeds clears a poisoned WAL (see appendLog).
func (s *Store) Compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked copies the newest frame per domain, verbatim and checked
// (readEpochLocked), from wherever it is into a new base.db, and re-points
// the epochs at their frames there only once the new file is in place
// and open: until then the old base handle, the WAL and the epoch map are
// untouched and still serve LastEpoch and the next compaction.
func (s *Store) compactLocked() error {
	names := make([]string, 0, len(s.epochs))
	for name := range s.epochs {
		names = append(names, name)
	}
	sort.Strings(names)
	if s.copyBuf == nil {
		s.copyBuf = make([]byte, mergeBufSize)
	}
	moved := make([]epochRec, len(names))
	base, err := replaceFile(s.fs, filepath.Join(s.cfg.Dir, baseName), func(w io.Writer) error {
		var off int64
		emit := func(b []byte) error {
			_, err := w.Write(b)
			return err
		}
		for i, name := range names {
			rec := s.epochs[name]
			buf := s.copyBuf
			if head := rec.token - rec.frame; head > int64(len(buf)) {
				buf = make([]byte, head)
			}
			if err := s.readEpochLocked(name, rec, buf, emit); err != nil {
				return fmt.Errorf("epoch %d of %q: %w", rec.seq, name, err)
			}
			moved[i] = epochRec{seq: rec.seq, inBase: true, frame: off, token: off + rec.token - rec.frame, length: rec.length}
			off = moved[i].token + rec.length
		}
		return nil
	}, s.cfg.Fsync != FsyncNone)
	if err != nil {
		return fmt.Errorf("statestore: compact: %w", err)
	}
	if s.base != nil {
		s.base.Close()
	}
	s.base = base
	for i, name := range names {
		s.epochs[name] = moved[i]
	}
	if err := s.wal.reset(); err != nil {
		return fmt.Errorf("statestore: compact: %w", err)
	}
	s.compactions.Add(1)
	// Everything appended so far is now durable via the base image.
	s.advanceSynced(s.appended.Load())
	return nil
}

// replaceFile puts a new file at path through the torn-write barrier —
// temp file, fsync, rename, directory fsync (the fsyncs when sync is
// set) — and returns it opened for reading; write fills it. Until it
// returns nil, the old file and every handle on it are as they were.
func replaceFile(fs fileSystem, path string, write func(w io.Writer) error, sync bool) (file, error) {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return nil, err
	}
	defer fs.Remove(tmp.Name()) // fails harmlessly once renamed
	err = write(tmp)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), path)
	}
	if err == nil && sync {
		var d file
		if d, err = fs.OpenFile(dir, os.O_RDONLY); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return fs.OpenFile(path, os.O_RDONLY)
}

// WALSize reports the current WAL length in bytes.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.size
}

// StatsSnapshot returns a point-in-time copy of the store's counters.
func (s *Store) StatsSnapshot() Stats {
	s.mu.Lock()
	wal := s.wal.size
	s.mu.Unlock()
	return Stats{
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

// Close flushes and closes the WAL, base.db and every open flow index;
// a poisoned log is closed unsynced and its poison returned. Further
// operations return ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.mu.Lock()
	first := s.wal.close(s.cfg.Fsync != FsyncNone)
	if s.base != nil {
		if err := s.base.Close(); err != nil && first == nil {
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
