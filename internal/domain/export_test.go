package domain

import (
	"errors"
	"time"

	"repro/internal/linear"
)

// errMailboxFull reports a trySend that found no free slot; the payload
// has been released (tail drop), not returned.
var errMailboxFull = errors.New("domain: mailbox full")

// lastCheckpoint reports when the newest good checkpoint was taken and
// whether one exists. It reads under gmu: a record leaves last under that
// lock before it is rewritten.
func (d *Domain[T]) lastCheckpoint() (time.Time, bool) {
	if d.ck == nil {
		return time.Time{}, false
	}
	d.gmu.Lock()
	defer d.gmu.Unlock()
	last := d.ck.last.Load()
	if last == nil {
		return time.Time{}, false
	}
	return last.at, true
}

// trySend is Send without blocking: a full mailbox tail-drops the payload
// (released via the hook, counted in Stats.Drops) and returns
// errMailboxFull, the way a NIC drops a frame when its descriptor ring is
// full.
func (m *Mailbox[T]) trySend(v linear.Owned[T]) error {
	moved, err := v.Move()
	if err != nil {
		return err
	}
	if m.closed.Load() {
		m.destroy(moved)
		return ErrMailboxClosed
	}
	m.clockSend(moved)
	select {
	case m.ch <- moved:
		m.enqueued()
		return nil
	case <-m.done:
		m.destroy(moved)
		return ErrMailboxClosed
	default:
		m.destroy(moved)
		return errMailboxFull
	}
}

// EpochNow runs one checkpoint epoch of d's current generation on the
// caller's goroutine, as the serving goroutine does between invocations.
// The caller keeps that goroutine away from the state: no payloads, and a
// CheckpointEvery longer than the test.
func (d *Domain[T]) EpochNow() error { return d.takeCheckpoint(d.epoch.Load()) }

// RestoreNow restores d's last good epoch, as a restart does between two
// generations; the caller keeps the serving goroutine idle, as for
// EpochNow.
func (d *Domain[T]) RestoreNow() error { return d.restoreLast() }

// SinkBuffers returns d's RAM sink's open and committed epoch buffers,
// which must not be written.
func (d *Domain[T]) SinkBuffers() (open, committed []byte) {
	return d.ck.sink.open.wire, d.ck.sink.committed.wire
}
