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
		m.noteSend()
		return nil
	case <-m.done:
		m.destroy(moved)
		return ErrMailboxClosed
	default:
		m.destroy(moved)
		return errMailboxFull
	}
}
