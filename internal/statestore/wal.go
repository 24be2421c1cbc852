// Package statestore is the log-structured durable store for checkpoint
// epochs and spilled flow state — the layer that takes the paper's §5
// in-RAM checkpoint tokens and makes them survive a process kill, not
// just a supervised domain restart.
//
// Layout on disk (one directory per store):
//
//	wal.log      append-only epoch records: one frame per whole epoch, or
//	             a streamed epoch's chunk frames and the commit that ends them
//	base.db      compacted epoch image: the newest committed epoch per domain,
//	             and the chunks so far of a stream open at the compaction
//	<name>.flog  per-domain flow spill log (framed SpillRecord batches)
//	<name>.fidx  per-domain compacted flow index, sorted by flow hash
//
// Every file shares one record framing (this file): a little-endian
// u32 payload length, a u32 CRC-32C of the payload, then the payload.
// Recovery reads the longest valid prefix of each log and truncates the
// torn tail, so a kill -9 mid-append loses at most the record being
// written — never a previously fsynced epoch, and never yields a
// partial epoch (a frame either passes its CRC whole or is dropped, and
// a streamed epoch counts only once its commit frame is in).
package statestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// frameHeaderSize is the fixed per-record overhead: u32 length, u32 CRC.
const frameHeaderSize = 8

// MaxFrame bounds a single record's payload. Anything larger in a log is
// treated as corruption (a torn or bit-flipped length prefix), ending
// the valid prefix there.
const MaxFrame = 64 << 20

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealFrame fills in the frame header that hdr starts with — the record's
// length and its CRC-32C, the record being hdr's bytes after the header
// and then body — and returns hdr. The CRC is fed over the two parts in
// turn, so they are never joined.
func sealFrame(hdr, body []byte) []byte {
	binary.LittleEndian.PutUint32(hdr, uint32(len(hdr)-frameHeaderSize+len(body)))
	sum := crc32.Update(crc32.Checksum(hdr[frameHeaderSize:], castagnoli), castagnoli, body)
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	return hdr
}

// scanFrames reads the log of size bytes from r and hands fn every
// complete, CRC-clean record of the longest valid prefix, in order, with
// the offset of its frame, returning that prefix's length; what follows
// the prefix is the torn tail (truncated header, short payload,
// oversized length, or CRC mismatch) and is never partially decoded. rec
// is the scanner's buffer, valid only for the call: a scan holds one
// record in memory, whatever the log's length. A length prefix is
// checked against the bytes left in the log before it sizes anything.
func scanFrames(r io.Reader, size int64, fn func(off int64, rec []byte)) (valid int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [frameHeaderSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, tornOrErr(err)
		}
		length := binary.LittleEndian.Uint32(hdr[:])
		if length > MaxFrame || int64(length) > size-valid-frameHeaderSize {
			return valid, nil
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(br, buf); err != nil {
			return valid, tornOrErr(err)
		}
		if crc32.Checksum(buf, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
			return valid, nil
		}
		fn(valid, buf)
		valid += frameHeaderSize + int64(length)
	}
}

// tornOrErr maps running out of bytes mid-frame to "the prefix ends
// here" and passes real I/O errors through.
func tornOrErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// appendLog is one append-only log of frames — wal.log, or a flow
// index's <name>.flog — and the one failure rule both follow. Every byte
// before size is whole frames. A failed or short append is cut back to
// size before the next can land behind it. If the cut fails, or an fsync
// does, the log is poisoned: its tail, or what the kernel kept of it
// after a writeback error, is unknown, so every later append, sync and
// close returns that error and nothing is retried and trusted. Only
// reset clears it, once the log's compaction has copied what it holds,
// checked, into a fresh fsynced file. The owner serializes append and
// reset; sync may run beside them, so the poison is atomic.
type appendLog struct {
	f    file
	size int64
	bad  atomic.Pointer[error]
}

// openLog opens (or creates) the log at path, hands fn every record of
// its longest valid prefix and cuts the torn tail after it, so that no
// append splices onto it. torn is the tail's length.
func openLog(fs fileSystem, path string, fn func(off int64, rec []byte)) (l *appendLog, torn int64, err error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND)
	if err != nil {
		return nil, 0, fmt.Errorf("statestore: %w", err)
	}
	valid, size, err := scanFile(f, fn)
	if err == nil && valid < size {
		if err = f.Truncate(valid); err != nil {
			err = fmt.Errorf("statestore: truncate torn tail of %s: %w", filepath.Base(path), err)
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &appendLog{f: f, size: valid}, size - valid, nil
}

// scanFile streams f from its start through fn (see scanFrames) and
// reports the length of its longest valid prefix and the file's size.
func scanFile(f file, fn func(off int64, rec []byte)) (valid, size int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("statestore: %w", err)
	}
	valid, err = scanFrames(io.NewSectionReader(f, 0, st.Size()), st.Size(), fn)
	if err != nil {
		return 0, 0, fmt.Errorf("statestore: replay %s: %w", filepath.Base(f.Name()), err)
	}
	return valid, st.Size(), nil
}

// append writes one frame given in parts, each written as it is (an
// epoch is its header, then the caller's payload, uncopied).
func (l *appendLog) append(parts ...[]byte) error {
	if err := l.poisoned(); err != nil {
		return err
	}
	n := 0
	for _, p := range parts {
		if _, err := l.f.Write(p); err != nil { // a short write is an error
			name := filepath.Base(l.f.Name())
			if terr := l.f.Truncate(l.size); terr != nil {
				return l.poison(fmt.Errorf("statestore: %s unusable: %w; cutting the partial frame failed: %v", name, err, terr))
			}
			return fmt.Errorf("statestore: append to %s: %w", name, err)
		}
		n += len(p)
	}
	l.size += int64(n)
	return nil
}

// sync flushes the log. A failed fsync poisons it.
func (l *appendLog) sync() error {
	if err := l.poisoned(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return l.poison(fmt.Errorf("statestore: fsync %s: %w", filepath.Base(l.f.Name()), err))
	}
	return nil
}

// reset empties the log and clears its poison; a failed cut poisons it.
func (l *appendLog) reset() error {
	if err := l.f.Truncate(0); err != nil {
		return l.poison(fmt.Errorf("statestore: truncate %s: %w", filepath.Base(l.f.Name()), err))
	}
	l.size = 0
	l.bad.Store(nil)
	return nil
}

// close closes the log, syncing it first when sync is set. A poisoned
// log is not synced again: close returns the poison.
func (l *appendLog) close(sync bool) error {
	err := l.poisoned()
	if err == nil && sync {
		err = l.sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *appendLog) poisoned() error {
	if p := l.bad.Load(); p != nil {
		return *p
	}
	return nil
}

func (l *appendLog) poison(err error) error {
	l.bad.Store(&err)
	return err
}
