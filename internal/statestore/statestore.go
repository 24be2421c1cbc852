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
}

// chunkLoc says where one record of an epoch is: its file (base.db or
// wal.log), the offset of its frame, and the offset and length of its
// body, which is the frame's tail.
type chunkLoc struct {
	frame, body, length int64
	inBase              bool
}

// epochRec says where one epoch is, not what it holds: its records, in
// order. One record is a whole epoch (epochVersion); more are a streamed
// epoch's chunks, the last of them its commit (chunkKind, commitKind). A
// stream that a compaction found open has its first chunks in base.db
// and the rest in wal.log. LastEpoch and compaction read the bytes back
// from the files.
type epochRec struct {
	seq    uint64
	length int64 // the epoch's bytes: its records' bodies, summed
	chunks []chunkLoc
}

// domainLog is one domain's entry in the store: its newest committed
// epoch, and the epoch it is streaming, if any. The chunk lists are
// kept: a commit swaps last and open, and a compaction re-points both
// through moved and movedOpen, so a domain that keeps streaming
// allocates none.
type domainLog struct {
	last      epochRec // no chunks: the domain has no epoch yet
	open      epochRec
	streaming bool
	// committed is the store's append count when last was committed:
	// what SyncEpoch flushes to.
	committed        uint64
	moved, movedOpen []chunkLoc // compaction's scratch for last's and open's new places
}

// Store is the durable epoch store: an append-only WAL of checkpoint
// tokens plus a compacted base image, with per-domain flow indexes
// hanging off it. One Store serves every domain of a process; appends
// from concurrent workers serialize on mu and coalesce their fsyncs.
type Store struct {
	cfg Config
	fs  fileSystem

	// The compaction triggers, which open sets from the constants below:
	// the clamp of the adaptive WAL threshold (compactThresholdLocked),
	// and the overlay entry count past which a spill batch merges a flow
	// index. The package's tests fix them through export_test.go.
	compactMin, compactMax int64
	flowCompactAfter       int

	mu        sync.Mutex // guards wal's appends and reset, base, epochs, liveBytes, copyBuf, sorted, compaction
	wal       *appendLog
	base      file // nil until base.db exists
	epochs    map[string]*domainLog
	liveBytes int64    // sum of current epoch sizes across domains
	copyBuf   []byte   // the frame copy buffer of LastEpoch and compaction, made by the first
	sorted    []string // compaction's sorted domain names, kept
	basePath  string

	// Group commit: appended counts records written, synced the highest
	// count known flushed. syncMu serializes the fsync itself.
	appended atomic.Uint64
	syncMu   sync.Mutex
	synced   atomic.Uint64

	flowMu sync.Mutex
	flows  map[string]*FlowIndex

	// hdrs recycles epoch frame headers (*[]byte): one is built outside
	// mu per append, because its CRC runs over the whole body.
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
	Persisted    uint64 // epochs committed by this process
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

	// defaultFlowCompactAfter is the overlay entry count past which a
	// spill batch merges a flow index.
	defaultFlowCompactAfter = 8192

	// Adaptive compaction: compact once the WAL holds about this many
	// generations of the whole live state (domain count × epoch payload
	// size, tracked as epochs land). A fixed byte threshold compacts
	// every couple of epochs when many domains write large tokens and
	// near-never for one small domain; scaling by live-state size makes
	// the cadence a constant number of whole-state generations either
	// way. The clamp floor keeps a single tiny domain from compacting
	// every few appends; the ceiling bounds replay time however large the
	// state.
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
	if err := fs.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	s := &Store{
		cfg:              cfg,
		fs:               fs,
		compactMin:       autoCompactMinBytes,
		compactMax:       autoCompactMaxBytes,
		flowCompactAfter: defaultFlowCompactAfter,
		epochs:           make(map[string]*domainLog),
		flows:            make(map[string]*FlowIndex),
		hdrs:             sync.Pool{New: func() any { return new([]byte) }},
	}
	// The compacted image first. A torn base tail (possible only if a
	// crash beat the rename barrier, which the write path prevents)
	// degrades to the valid prefix.
	s.basePath = filepath.Join(cfg.Dir, baseName)
	base, err := fs.OpenFile(s.basePath, os.O_RDONLY)
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
	s.closeStreams()
	for _, d := range s.epochs {
		s.liveBytes += d.last.length
	}
	return s, nil
}

// closeStreams forgets the streams replay left open: whoever wrote them
// is gone, and their chunks are orphans. A stream base.db holds the
// first chunks of goes on in wal.log, so only the WAL's end closes them.
func (s *Store) closeStreams() {
	for _, d := range s.epochs {
		d.streaming = false
	}
}

// domainLocked returns the named domain's entry, made on first sight.
// Caller holds s.mu (or is open, before the store is shared).
func (s *Store) domainLocked(name string) *domainLog {
	d, ok := s.epochs[name]
	if !ok {
		d = new(domainLog)
		s.epochs[name] = d
	}
	return d
}

// hasEpoch reports whether the domain has a committed epoch.
func (d *domainLog) hasEpoch() bool { return len(d.last.chunks) > 0 }

// newer reports whether seq may open an epoch of the domain: it must be
// newer than the newest committed epoch. The stream open now, whatever
// its seq, is replaced. Replay has no process boundary, so the stream it
// has open may be one a crashed process left, and the restarted writer
// takes that seq, or an older one, again: it goes on from the newest
// committed epoch. One process streams a domain's epochs one at a time
// and in seq order, so live, an open stream is one whose writer gave up.
func (d *domainLog) newer(seq uint64) bool {
	return !d.hasEpoch() || seq > d.last.seq
}

// note applies one record of an epoch, chunk index of seq, to the
// domain's stream, and commits the stream when commit is set; it
// reports whether the record was taken. Index 0 opens a stream (it
// replaces the open one); any other must continue the open stream of
// seq, whose chunks it follows. Live appends and replay follow this one
// rule, so replay assembles exactly the epochs the store committed: a
// record that does not continue its stream is an orphan, ignored, and
// an orphan of the open stream's seq breaks that stream too.
func (d *domainLog) note(seq uint64, index int, loc chunkLoc, commit bool) bool {
	if index == 0 {
		if !d.newer(seq) {
			return false
		}
		d.open.seq, d.open.length = seq, 0
		d.open.chunks = d.open.chunks[:0]
		d.streaming = true
	} else if !d.streaming || d.open.seq != seq || len(d.open.chunks) != index {
		if d.streaming && d.open.seq == seq {
			d.streaming = false
		}
		return false
	}
	d.open.chunks = append(d.open.chunks, loc)
	d.open.length += loc.length
	if commit {
		d.last, d.open = d.open, d.last
		d.streaming = false
	}
	return true
}

// applyEpochRecord notes where one replayed record is, through the
// rule live appends follow (domainLog.note); newer sequence numbers win
// (replay order and seq order agree for a single writer, but the base +
// WAL merge needs the comparison). Records that frame-decode but fail
// epoch decoding are counted and skipped, never fatal: one bad record
// must not cost the epochs around it.
func (s *Store) applyEpochRecord(inBase bool, off int64, rec []byte) {
	name, seq, index, kind, body, err := decodeRecord(rec)
	if err != nil {
		s.badEpochs.Add(1)
		return
	}
	loc := chunkLoc{frame: off, body: off + frameHeaderSize + int64(len(rec)-len(body)), length: int64(len(body)), inBase: inBase}
	s.domainLocked(name).note(seq, index, loc, kind != chunkKind)
}

// compactThresholdLocked is the WAL size past which this append
// compacts: autoCompactGenerations × the live state, clamped to
// [compactMin, compactMax]. Caller holds s.mu.
func (s *Store) compactThresholdLocked() int64 {
	th := autoCompactGenerations * (s.liveBytes + int64(len(s.epochs))*frameHeaderSize)
	return min(max(th, s.compactMin), s.compactMax)
}

// Epoch record layouts (inside a frame). The first byte says which:
//
//	epochVersion: a whole epoch (PersistEpoch's, or a stream that fit one chunk)
//	  u8 1, u16 name length, name bytes, u64 seq, i64 unix nanos, u32 token length, token bytes
//	chunkKind: one chunk of a streamed epoch, not its last
//	commitKind: the last chunk of a streamed epoch, which commits it
//	  u8 kind, u16 name length, name bytes, u64 seq, u32 chunk index, body bytes
//
// A streamed epoch of n > 1 chunks is chunk records 0 … n-2 and a commit
// record n-1, all of one name and seq, in order but not necessarily
// adjacent: other domains' records may come between them.
const (
	epochVersion = 1
	chunkKind    = 2
	commitKind   = 3
)

// epochFrameHeader builds, in hdr's memory when it is large enough, the
// bytes that precede token in a whole-epoch record's frame: the frame
// header (see sealFrame) and the record header.
func epochFrameHeader(hdr []byte, name string, seq uint64, at int64, token []byte) ([]byte, error) {
	if len(name) > 0xffff || 1+2+len(name)+8+8+4+len(token) > MaxFrame {
		return nil, fmt.Errorf("statestore: epoch of %q (%d-byte token) does not fit a frame", name, len(token))
	}
	hdr = append(hdr[:0], make([]byte, frameHeaderSize)...)
	hdr = append(hdr, epochVersion)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(at))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(token)))
	return sealFrame(hdr, token), nil
}

// chunkFrameHeader is epochFrameHeader for chunk index of a streamed
// epoch, a chunkKind or commitKind record.
func chunkFrameHeader(hdr []byte, kind byte, name string, seq uint64, index int, body []byte) ([]byte, error) {
	if len(name) > 0xffff || 1+2+len(name)+8+4+len(body) > MaxFrame || uint64(index) > 0xffffffff {
		return nil, fmt.Errorf("statestore: chunk %d of %q (%d bytes) does not fit a frame", index, name, len(body))
	}
	hdr = append(hdr[:0], make([]byte, frameHeaderSize)...)
	hdr = append(hdr, kind)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(index))
	return sealFrame(hdr, body), nil
}

// decodeEpoch parses one whole-epoch record; token is a subslice of rec.
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

// decodeRecord parses a record of any kind into the chunk it is: a
// whole epoch is chunk 0 of kind epochVersion. body is a subslice of
// rec. A commit at index 0 is refused: a one-chunk epoch is written whole.
func decodeRecord(rec []byte) (name string, seq uint64, index int, kind byte, body []byte, err error) {
	if len(rec) == 0 || (rec[0] != chunkKind && rec[0] != commitKind) {
		name, seq, _, body, err = decodeEpoch(rec)
		return name, seq, 0, epochVersion, body, err
	}
	kind = rec[0]
	if len(rec) < 3 {
		return "", 0, 0, 0, nil, errors.New("statestore: bad chunk record: name length")
	}
	n := int(binary.LittleEndian.Uint16(rec[1:]))
	if len(rec) < 3+n+8+4 {
		return "", 0, 0, 0, nil, errors.New("statestore: bad chunk record: short body")
	}
	name = string(rec[3 : 3+n])
	seq = binary.LittleEndian.Uint64(rec[3+n:])
	index = int(binary.LittleEndian.Uint32(rec[3+n+8:]))
	if name == "" || (kind == commitKind && index == 0) {
		return "", 0, 0, 0, nil, errors.New("statestore: bad chunk record: empty name or commit at index 0")
	}
	return name, seq, index, kind, rec[3+n+8+4:], nil
}

// PersistEpoch appends one checkpoint epoch for the named domain and
// makes it durable per the fsync mode: it is the one-chunk case of a
// stream, CommitEpoch at index 0 and then SyncEpoch. seq must be newer
// than the domain's newest epoch (the domain runtime's epoch sequence):
// an older or equal one is refused, as replay would discard it. The
// store stamps the time. This is the domain.Persister contract: payload
// is borrowed for the call only — the frame is written around it without
// copying it, and the store keeps where the epoch is, not its bytes — so
// the caller may write to payload as soon as PersistEpoch returns,
// whatever it returned.
func (s *Store) PersistEpoch(name string, seq uint64, payload []byte) error {
	if err := s.CommitEpoch(name, seq, 0, payload); err != nil {
		return err
	}
	return s.SyncEpoch(name)
}

// AppendChunk appends chunk index of the named domain's streamed epoch
// seq, not its last. Index 0 opens the stream: seq must be newer than
// the domain's newest epoch, and a stream the domain has open is
// replaced. Any other index must continue the open stream of seq. The
// store lock is held for this one append, so domains streaming into one
// store wait for one another's chunks, never for one another's captures.
// chunk is borrowed for the call, as PersistEpoch's payload is. A failed
// append closes the stream; the chunks it had are orphans in the log,
// which replay ignores.
func (s *Store) AppendChunk(name string, seq uint64, index int, chunk []byte) error {
	return s.appendRecord(name, seq, index, chunk, false)
}

// CommitEpoch appends the last chunk of the named domain's streamed epoch
// seq, index being the number of chunks AppendChunk appended before it,
// and commits the epoch: from then on it is the domain's newest, which
// LastEpoch reads and compaction keeps. At index 0 the epoch is this one
// chunk, written as the one record PersistEpoch writes. The commit is
// appended, not synced: SyncEpoch makes it durable.
func (s *Store) CommitEpoch(name string, seq uint64, index int, chunk []byte) error {
	return s.appendRecord(name, seq, index, chunk, true)
}

// appendRecord is AppendChunk and CommitEpoch: the record's header is
// built outside s.mu (its CRC runs over the whole body), and the append
// follows the rule replay does (domainLog.note).
func (s *Store) appendRecord(name string, seq uint64, index int, body []byte, commit bool) error {
	if s.closed.Load() {
		return ErrClosed
	}
	hp := s.hdrs.Get().(*[]byte)
	defer s.hdrs.Put(hp)
	var hdr []byte
	var err error
	switch {
	case commit && index == 0:
		hdr, err = epochFrameHeader(*hp, name, seq, time.Now().UnixNano(), body)
	case commit:
		hdr, err = chunkFrameHeader(*hp, commitKind, name, seq, index, body)
	default:
		hdr, err = chunkFrameHeader(*hp, chunkKind, name, seq, index, body)
	}
	if err != nil {
		return err
	}
	*hp = hdr

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	d := s.domainLocked(name)
	switch {
	case index == 0 && !d.newer(seq):
		return fmt.Errorf("statestore: epoch %d of %q is not newer than the stored %d", seq, name, d.last.seq)
	case index > 0 && (!d.streaming || d.open.seq != seq || len(d.open.chunks) != index):
		return fmt.Errorf("statestore: chunk %d of epoch %d of %q continues no open stream", index, seq, name)
	}
	wasLength := d.last.length
	frame := s.wal.size
	if err := s.wal.append(hdr, body); err != nil {
		if index > 0 {
			d.streaming = false
		}
		return err
	}
	d.note(seq, index, chunkLoc{frame: frame, body: frame + int64(len(hdr)), length: int64(len(body))}, commit)
	s.persistBytes.Add(uint64(len(body)))
	if commit {
		s.liveBytes += d.last.length - wasLength
		d.committed = s.appended.Add(1)
		s.persisted.Add(1)
	}
	return nil
}

// SyncEpoch makes the named domain's newest committed epoch durable per
// the fsync mode: a group commit with its siblings' — or, when the WAL
// has passed its compaction threshold, a compaction, which subsumes the
// sync. A domain calls it after
// CommitEpoch, outside the lock it publishes under.
func (s *Store) SyncEpoch(name string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	var rec uint64
	if d, ok := s.epochs[name]; ok {
		rec = d.committed
	}
	if s.wal.size >= s.compactThresholdLocked() {
		// Compaction writes base.db through a rename barrier and then
		// truncates the WAL, so it subsumes this record's durability.
		err := s.compactLocked()
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	if s.cfg.Fsync != FsyncGroup {
		return nil
	}
	return s.syncTo(rec)
}

// AbortEpoch ends the named domain's stream of epoch seq, if that is the
// one open, without committing it: its chunks stay in the log as
// orphans, and compaction no longer carries them. A stream whose capture
// failed, or whose generation was superseded, ends here.
func (s *Store) AbortEpoch(name string, seq uint64) {
	s.mu.Lock()
	if d, ok := s.epochs[name]; ok && d.streaming && d.open.seq == seq {
		d.streaming = false
	}
	s.mu.Unlock()
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
// owns — a streamed epoch's chunks joined — and a read that fails, or
// bytes that are not that epoch's records, are an error. This is the
// domain.Persister contract.
func (s *Store) LastEpoch(name string) ([]byte, uint64, bool, error) {
	if s.closed.Load() {
		return nil, 0, false, ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.epochs[name]
	if !ok || !d.hasEpoch() {
		return nil, 0, false, nil
	}
	payload := make([]byte, 0, d.last.length)
	err := s.readEpochLocked(name, &d.last, false, func(_, body []byte) error {
		payload = append(payload, body...)
		return nil
	})
	if err != nil {
		return nil, 0, false, fmt.Errorf("statestore: read epoch %d of %q: %w", d.last.seq, name, err)
	}
	return payload, d.last.seq, true, nil
}

// readEpochLocked reads the records rec locates, of the named domain's
// epoch — a committed one, or with open set the chunks an open stream
// has so far — a piece of at most len(s.copyBuf) bytes at a time,
// handing each piece to emit with the part of it that is epoch bytes,
// and checks that every record is that epoch's: its length, its record
// header (name, seq, and the token length or the chunk's kind and
// index) and its CRC. A stale location therefore fails the read instead
// of yielding another epoch's bytes. Caller holds s.mu.
func (s *Store) readEpochLocked(name string, rec *epochRec, open bool, emit func(frame, body []byte) error) error {
	if s.copyBuf == nil {
		s.copyBuf = make([]byte, mergeBufSize)
	}
	last := len(rec.chunks) - 1
	for i, c := range rec.chunks {
		src := s.wal.f
		if c.inBase {
			src = s.base
		}
		head := c.body - c.frame
		buf := s.copyBuf
		if head > int64(len(buf)) {
			buf = make([]byte, head)
		}
		var want, sum uint32
		for done, size := int64(0), head+c.length; done < size; {
			piece := buf[:min(int64(len(buf)), size-done)]
			if _, err := src.ReadAt(piece, c.frame+done); err != nil {
				return err
			}
			crcd, body := piece, piece
			if done == 0 {
				h := piece[:head]
				var ok bool
				switch {
				case !open && last == 0:
					ok = isEpochHead(h, name, rec.seq, c.length)
				case !open && i == last:
					ok = isChunkHead(h, commitKind, name, rec.seq, i, c.length)
				default:
					ok = isChunkHead(h, chunkKind, name, rec.seq, i, c.length)
				}
				if !ok {
					return errors.New("the bytes there are not this epoch's frame")
				}
				want = binary.LittleEndian.Uint32(h[4:])
				crcd, body = piece[frameHeaderSize:], piece[head:]
			}
			sum = crc32.Update(sum, castagnoli, crcd)
			if err := emit(piece, body); err != nil {
				return err
			}
			done += int64(len(piece))
		}
		if sum != want {
			return errors.New("the frame there fails its CRC")
		}
	}
	return nil
}

// isEpochHead reports whether head, a frame's bytes up to its token,
// frames whole epoch seq of name with a token of length bytes.
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

// isChunkHead reports whether head, a frame's bytes up to its body,
// frames chunk index of kind of epoch seq of name, with a body of length
// bytes.
func isChunkHead(head []byte, kind byte, name string, seq uint64, index int, length int64) bool {
	r := head[frameHeaderSize:]
	n := len(name)
	return len(r) == 1+2+n+8+4 &&
		int64(binary.LittleEndian.Uint32(head)) == int64(len(r))+length &&
		r[0] == kind &&
		int(binary.LittleEndian.Uint16(r[1:])) == n &&
		string(r[3:3+n]) == name &&
		binary.LittleEndian.Uint64(r[3+n:]) == seq &&
		int(binary.LittleEndian.Uint32(r[3+n+8:])) == index
}

// EpochCount reports how many domains have a durable epoch.
func (s *Store) EpochCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, d := range s.epochs {
		if d.hasEpoch() {
			n++
		}
	}
	return n
}

// Compact rewrites base.db as the newest epoch per domain, and the
// chunks of every stream open now, and truncates the WAL. Crash-safe:
// the new base is fully written and fsynced before a rename swaps it in,
// the directory entry is fsynced before the WAL is truncated, so every
// instant of the sequence recovers to either the old (base + WAL) or the
// new (base alone) image — never less. A compaction that succeeds clears
// a poisoned WAL (see appendLog).
func (s *Store) Compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// compactLocked copies each domain's newest committed epoch and then
// its open stream's chunks, their records verbatim and checked
// (readEpochLocked), from wherever they are into a new base.db, and
// re-points them only once the new file is in place and open: until then
// the old base handle, the WAL and the epoch map are untouched and still
// serve LastEpoch and the next compaction. A stream goes on in the WAL
// after its chunks in base.db, and replay follows it there: so no
// compaction waits for a stream, however long its capture takes. The
// name list and each domain's chunk lists are kept from one compaction
// to the next. Caller holds s.mu.
func (s *Store) compactLocked() error {
	names := s.sorted[:0]
	for name, d := range s.epochs {
		if d.hasEpoch() || d.streaming {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	s.sorted = names
	base, err := replaceFile(s.fs, s.basePath, func(w io.Writer) error {
		var off int64
		var err error
		for _, name := range names {
			d := s.epochs[name]
			if off, d.moved, err = s.copyEpochLocked(w, off, name, &d.last, false, d.moved); err != nil {
				return fmt.Errorf("epoch %d of %q: %w", d.last.seq, name, err)
			}
			if !d.streaming {
				continue
			}
			if off, d.movedOpen, err = s.copyEpochLocked(w, off, name, &d.open, true, d.movedOpen); err != nil {
				return fmt.Errorf("open epoch %d of %q: %w", d.open.seq, name, err)
			}
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
	for _, name := range names {
		d := s.epochs[name]
		d.last.chunks, d.moved = d.moved, d.last.chunks
		if d.streaming {
			d.open.chunks, d.movedOpen = d.movedOpen, d.open.chunks
		}
	}
	if err := s.wal.reset(); err != nil {
		return fmt.Errorf("statestore: compact: %w", err)
	}
	s.compactions.Add(1)
	// Everything appended so far is now durable via the base image.
	s.advanceSynced(s.appended.Load())
	return nil
}

// copyEpochLocked writes the records of rec, the named domain's epoch
// (open: its open stream's chunks so far), read back and checked, to w,
// which is filling base.db at offset off. It returns the offset after
// them, and moved, reused, holding where each record lands.
func (s *Store) copyEpochLocked(w io.Writer, off int64, name string, rec *epochRec, open bool, moved []chunkLoc) (int64, []chunkLoc, error) {
	moved = moved[:0]
	for _, c := range rec.chunks {
		head := c.body - c.frame
		moved = append(moved, chunkLoc{frame: off, body: off + head, length: c.length, inBase: true})
		off += head + c.length
	}
	err := s.readEpochLocked(name, rec, open, func(frame, _ []byte) error {
		_, err := w.Write(frame)
		return err
	})
	return off, moved, err
}

// replaceFile puts a new file at path through the torn-write barrier —
// temp file, fsync, rename, directory fsync (the fsyncs when sync is
// set) — and returns it opened for reading; write fills it. Until it
// returns nil, the old file and every handle on it are as they were, and
// a replace that fails removes its temp file.
func replaceFile(fs fileSystem, path string, write func(w io.Writer) error, sync bool) (file, error) {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			fs.Remove(tmp.Name())
		}
	}()
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
