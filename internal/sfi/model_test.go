package sfi

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/linear"
)

// Model-based randomized test: drive a domain through random sequences
// of export / call / revoke / fault / recover operations while
// tracking a trivial reference model, and assert after every step that
// the implementation agrees with the model:
//
//   - a call through an rref succeeds iff the model says (domain live ∧
//     slot occupied by a value of the right type);
//   - a failed domain accepts nothing until recovered;
//   - table size always matches the model's occupancy.
func TestModelRandomLifecycle(t *testing.T) {
	const (
		trials = 30
		steps  = 400
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		mgr := NewManager()
		d := mgr.NewDomain("model")

		type modelEntry struct{ value int }
		model := make(map[uint64]*modelEntry) // slot -> entry
		var rrefs []*RRef[*counter]
		rrefSlot := make(map[*RRef[*counter]]uint64)
		state := "live" // live | failed

		// The recovery function re-populates every slot the model says
		// should exist.
		d.SetRecovery(func(d *Domain) error {
			for slot, e := range model {
				if err := ExportAt(d, slot, &counter{n: e.value}); err != nil {
					return err
				}
			}
			return nil
		})

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // export a new object
				if state != "live" {
					if _, err := Export(d, &counter{}); err == nil {
						t.Fatalf("trial %d step %d: export into %s domain succeeded", trial, step, state)
					}
					continue
				}
				v := rng.Intn(1000)
				rref, err := Export(d, &counter{n: v})
				if err != nil {
					t.Fatalf("trial %d step %d: export: %v", trial, step, err)
				}
				model[rref.Slot()] = &modelEntry{value: v}
				rrefs = append(rrefs, rref)
				rrefSlot[rref] = rref.Slot()

			case op < 6 && len(rrefs) > 0: // call through a random rref
				rref := rrefs[rng.Intn(len(rrefs))]
				slot := rrefSlot[rref]
				_, entryLive := model[slot]
				err := rref.Call("peek", func(c *counter) error { return nil })
				shouldSucceed := state == "live" && entryLive
				if shouldSucceed && err != nil {
					t.Fatalf("trial %d step %d: call should succeed: %v", trial, step, err)
				}
				if !shouldSucceed && err == nil {
					t.Fatalf("trial %d step %d: call should fail (state=%s entry=%v)", trial, step, state, entryLive)
				}

			case op == 6 && len(rrefs) > 0: // revoke a random slot
				if state != "live" {
					continue
				}
				rref := rrefs[rng.Intn(len(rrefs))]
				d.Revoke(rrefSlot[rref])
				delete(model, rrefSlot[rref])

			case op == 7: // fault the domain via an injected panic
				if state != "live" || len(rrefs) == 0 {
					continue
				}
				rref := rrefs[rng.Intn(len(rrefs))]
				if _, ok := model[rrefSlot[rref]]; !ok {
					continue // call would fail before reaching the body
				}
				err := rref.Call("boom", func(*counter) error { panic("injected") })
				if !errors.Is(err, ErrDomainFailed) {
					t.Fatalf("trial %d step %d: fault err = %v", trial, step, err)
				}
				state = "failed"

			case op == 8: // recover
				err := mgr.Recover(d)
				switch state {
				case "failed":
					if err != nil {
						t.Fatalf("trial %d step %d: recover: %v", trial, step, err)
					}
					state = "live"
				default:
					if err == nil {
						t.Fatalf("trial %d step %d: recover of %s domain succeeded", trial, step, state)
					}
				}
			}

			// Invariant: table occupancy matches the model while live.
			if state == "live" && d.TableSize() != len(model) {
				t.Fatalf("trial %d step %d: table size %d, model %d", trial, step, d.TableSize(), len(model))
			}
			if state != "live" && d.TableSize() != 0 {
				t.Fatalf("trial %d step %d: %s domain has %d entries", trial, step, state, d.TableSize())
			}
		}
	}
}

// Model test for CallMove: across random sequences, ownership of a token
// is always held by exactly one party (caller or lost-to-failed-domain),
// never duplicated, never resurrected.
func TestModelCallMoveOwnership(t *testing.T) {
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 99))
		mgr := NewManager()
		d := mgr.NewDomain("stage")
		rref, err := Export(d, &counter{})
		if err != nil {
			t.Fatal(err)
		}
		slot := rref.Slot()
		d.SetRecovery(func(d *Domain) error { return ExportAt(d, slot, &counter{}) })

		token := linear.New(42)
		holderAlive := true // caller holds the token
		for step := 0; step < 100; step++ {
			if !holderAlive {
				// Token lost with a failed domain: a fresh one enters.
				token = linear.New(step)
				holderAlive = true
			}
			crash := rng.Intn(5) == 0
			out, err := CallMove(rref, "mv", token,
				func(c *counter, a linear.Owned[int]) (linear.Owned[int], error) {
					if crash {
						panic("crash holding token")
					}
					return a, nil
				})
			if crash {
				if !errors.Is(err, ErrDomainFailed) {
					t.Fatalf("trial %d step %d: err = %v", trial, step, err)
				}
				// The old handle must be dead.
				if token.Valid() {
					t.Fatalf("trial %d step %d: caller retains token after it died with the domain", trial, step)
				}
				holderAlive = false
				if rerr := mgr.Recover(d); rerr != nil {
					t.Fatal(rerr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			// Old handle dead, new handle live: exactly one owner.
			if token.Valid() {
				t.Fatalf("trial %d step %d: two live handles", trial, step)
			}
			if !out.Valid() {
				t.Fatalf("trial %d step %d: returned handle dead", trial, step)
			}
			token = out
		}
	}
}
