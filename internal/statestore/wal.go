// Package statestore is the log-structured durable store for checkpoint
// epochs and spilled flow state — the layer that takes the paper's §5
// in-RAM checkpoint tokens and makes them survive a process kill, not
// just a supervised domain restart.
//
// Layout on disk (one directory per store):
//
//	wal.log      append-only epoch records, one frame per persisted epoch
//	base.db      compacted epoch image: the newest frame per domain
//	<name>.flog  per-domain flow spill log (framed SpillRecord batches)
//	<name>.fidx  per-domain compacted flow index, sorted by flow hash
//
// Every file shares one record framing (this file): a little-endian
// u32 payload length, a u32 CRC-32C of the payload, then the payload.
// Recovery reads the longest valid prefix of each log and truncates the
// torn tail, so a kill -9 mid-append loses at most the record being
// written — never a previously fsynced epoch, and never yields a
// partial epoch (the frame either passes its CRC whole or is dropped).
package statestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// frameHeaderSize is the fixed per-record overhead: u32 length, u32 CRC.
const frameHeaderSize = 8

// MaxFrame bounds a single record's payload. Anything larger in a log is
// treated as corruption (a torn or bit-flipped length prefix), ending
// the valid prefix there.
const MaxFrame = 64 << 20

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed record holding payload to buf and
// returns the extended buffer.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// writeFrame writes one frame whose bytes are split in two — everything
// up to the bulk of the payload, then the bulk itself, uncopied — as two
// writes. (io.Writer reports a short write as an error.)
func writeFrame(w io.Writer, hdr, bulk []byte) error {
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(bulk)
	return err
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
