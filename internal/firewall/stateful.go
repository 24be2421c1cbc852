package firewall

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/netbricks"
)

// Stateful adapts a rule database into a part of a domain.StateSet, the
// domain runtime's checkpointed recovery contract. The live DB sits behind an atomic pointer so a
// restore's swap is visible to a pipeline already rebuilt by the user
// Recover hook (state recovery runs after plumbing recovery); the wire
// image of the rules it was built with backs Reset, since a firewall's
// cold start is its configured rules, not an empty trie.
//
// A wrapped DB is never modified again — rules change by swapping in
// another DB — so its wire image (durable.go) is computed once and
// cached against the pointer: an epoch over an unchanged rule set costs
// a pointer comparison, and because capture only reads the DB, several
// workers' Statefuls may wrap one shared DB.
type Stateful struct {
	db   atomic.Pointer[DB]
	boot []byte
	enc  atomic.Pointer[encodedDB]
}

// encodedDB is the wire image of one DB, valid for as long as db is the
// live pointer.
type encodedDB struct {
	db   *DB
	wire []byte
}

// NewStateful wraps db, encoding it once as the cold-start image. db
// must not be modified afterwards.
func NewStateful(db *DB) (*Stateful, error) {
	boot, err := appendDB(nil, db)
	if err != nil {
		return nil, fmt.Errorf("firewall: boot image: %w", err)
	}
	s := &Stateful{boot: boot}
	s.db.Store(db)
	s.enc.Store(&encodedDB{db: db, wire: boot})
	return s, nil
}

// DB returns the live database.
func (s *Stateful) DB() *DB { return s.db.Load() }

// wire returns the live DB's wire image, flattening the trie only when
// the DB pointer changed since the last call. The result is shared and
// must not be written to.
func (s *Stateful) wire() ([]byte, error) {
	db := s.db.Load()
	if c := s.enc.Load(); c != nil && c.db == db {
		return c.wire, nil
	}
	wire, err := appendDB(nil, db)
	if err != nil {
		return nil, err
	}
	s.enc.Store(&encodedDB{db: db, wire: wire})
	return wire, nil
}

// install swaps in a fresh DB decoded from a wire image, which from then
// on is also that DB's cached encoding.
func (s *Stateful) install(wire []byte) error {
	db, err := decodeDB(wire)
	if err != nil {
		return err
	}
	s.db.Store(db)
	s.enc.Store(&encodedDB{db: db, wire: wire})
	return nil
}

// CheckpointSize reports the bytes StreamCheckpoint would write now.
func (s *Stateful) CheckpointSize() int {
	wire, _ := s.wire() // an unencodable DB fails in StreamCheckpoint
	return len(wire)
}

// StreamCheckpoint appends the live DB's wire image to buf. A nil flush
// grows buf. With flush set, buf's capacity is all the room there is:
// the image is copied in as much as fits, the full chunk goes to flush,
// and the copy goes on in the one flush returns. What reaches flush, and
// then the returned tail, are the image's bytes, in order, whatever the
// chunk's size.
func (s *Stateful) StreamCheckpoint(buf []byte, flush func([]byte) ([]byte, error)) ([]byte, error) {
	wire, err := s.wire()
	if err != nil {
		return nil, err
	}
	for flush != nil && len(buf)+len(wire) > cap(buf) {
		n := cap(buf) - len(buf)
		buf, wire = append(buf, wire[:n]...), wire[n:]
		if buf, err = flush(buf); err != nil {
			return nil, err
		}
	}
	return append(buf, wire...), nil
}

// CheckCheckpoint reports whether Restore would accept wire. A rule set
// is configuration-sized, so the check is a trial decode.
func (s *Stateful) CheckCheckpoint(wire []byte) error {
	_, err := decodeDB(wire)
	return err
}

// Restore swaps in a fresh DB built from a wire image; decoding validates
// the whole image before the swap, so a bad one leaves the live DB in
// place. The cached encoding is a copy of the image's
// (configuration-sized) bytes: inside a StateSet the image is a window
// into the whole epoch buffer, which the set writes again once the
// runtime hands it back.
func (s *Stateful) Restore(wire []byte) error {
	return s.install(bytes.Clone(wire))
}

// Reset swaps in a fresh DB built from the boot-time rules.
func (s *Stateful) Reset() {
	if err := s.install(s.boot); err != nil {
		// NewStateful produced the boot image from a live DB; a failure
		// here means memory corruption the runtime cannot recover from.
		panic(fmt.Sprintf("firewall: reset from boot image: %v", err))
	}
}

// StatefulOperator is Operator reading the database through a Stateful
// adapter on every batch, so restores and resets take effect without
// rebuilding the pipeline.
type StatefulOperator struct {
	S *Stateful
}

// Name implements netbricks.Operator.
func (StatefulOperator) Name() string { return "firewall" }

// ProcessBatch implements netbricks.Operator.
func (o StatefulOperator) ProcessBatch(b *netbricks.Batch) error {
	return Operator{DB: o.S.DB()}.ProcessBatch(b)
}

var _ netbricks.Operator = StatefulOperator{}
