package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/linear"
)

// account graph with explicit sharing: two views of the same balance.
type account struct {
	Name    string
	Balance linear.Rc[int]
}

type bank struct {
	Accounts []*account
	Total    int
}

func newBank() *bank {
	return &bank{
		Accounts: []*account{
			{Name: "a", Balance: linear.NewRc(100)},
			{Name: "b", Balance: linear.NewRc(50)},
		},
		Total: 150,
	}
}

func TestUpdateCommit(t *testing.T) {
	s, err := NewStore(newBank(), 4)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Update(func(b **bank) error {
		(*b).Total = 175
		(*b).Accounts[0].Balance.Set(125)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d", s.Version())
	}
	s.View(func(b *bank) {
		if b.Total != 175 || b.Accounts[0].Balance.Get() != 125 {
			t.Fatalf("committed state wrong: %+v", b)
		}
	})
}

func TestUpdateErrorRollsBack(t *testing.T) {
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("insufficient funds")
	err = s.Update(func(b **bank) error {
		(*b).Total = -1
		(*b).Accounts[0].Balance.Set(-999)
		return cause
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if s.Version() != 0 {
		t.Fatalf("version advanced on abort: %d", s.Version())
	}
	s.View(func(b *bank) {
		if b.Total != 150 || b.Accounts[0].Balance.Get() != 100 {
			t.Fatalf("rollback incomplete: %+v, balance %d", b, b.Accounts[0].Balance.Get())
		}
	})
}

func TestUpdatePanicRollsBack(t *testing.T) {
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Update(func(b **bank) error {
		(*b).Total = 9999
		panic("bug in transaction body")
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	s.View(func(b *bank) {
		if b.Total != 150 {
			t.Fatalf("panic rollback incomplete: %+v", b)
		}
	})
	// Store still usable afterwards.
	if err := s.Update(func(b **bank) error { (*b).Total = 151; return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackPreservesSharing(t *testing.T) {
	// The restored graph must still share the Rc balance between any
	// aliases — rollback via Rc-aware checkpointing.
	b := newBank()
	shared := b.Accounts[0].Balance.Clone()
	b.Accounts = append(b.Accounts, &account{Name: "alias", Balance: shared})
	s, err := NewStore(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Update(func(bb **bank) error {
		(*bb).Accounts[0].Balance.Set(1)
		return errors.New("abort")
	})
	s.View(func(bb *bank) {
		if !bb.Accounts[0].Balance.SameBox(bb.Accounts[2].Balance) {
			t.Fatal("rollback lost alias structure")
		}
		if bb.Accounts[0].Balance.Get() != 100 {
			t.Fatal("rollback lost value")
		}
	})
}

func TestMultiversionReads(t *testing.T) {
	s, err := NewStore(newBank(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		v := i
		if err := s.Update(func(b **bank) error { (*b).Total = 150 + v; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var old *bank
	if err := s.ReadVersion(1, &old); err != nil {
		t.Fatal(err)
	}
	if old.Total != 151 {
		t.Fatalf("version 1 Total = %d", old.Total)
	}
	if err := s.ReadVersion(0, &old); err != nil {
		t.Fatal(err)
	}
	if old.Total != 150 {
		t.Fatalf("version 0 Total = %d", old.Total)
	}
	if err := s.ReadVersion(99, &old); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestHistoryEviction(t *testing.T) {
	s, err := NewStore(newBank(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Update(func(b **bank) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var b *bank
	if err := s.ReadVersion(1, &b); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("old version retained beyond keep: %v", err)
	}
	if err := s.ReadVersion(5, &b); err != nil {
		t.Fatalf("latest version missing: %v", err)
	}
}

func TestNoHistoryMode(t *testing.T) {
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var b *bank
	if err := s.ReadVersion(0, &b); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplicaSync(t *testing.T) {
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica[*bank]()
	if err := r.SyncFrom(s); err != nil {
		t.Fatal(err)
	}
	r.View(func(b *bank) {
		if b.Total != 150 {
			t.Fatalf("replica Total = %d", b.Total)
		}
	})
	// Primary advances; replica is stale until next sync.
	if err := s.Update(func(b **bank) error { (*b).Total = 200; return nil }); err != nil {
		t.Fatal(err)
	}
	r.View(func(b *bank) {
		if b.Total != 150 {
			t.Fatal("replica mutated without sync")
		}
	})
	if err := r.SyncFrom(s); err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("replica version = %d", r.Version())
	}
	r.View(func(b *bank) {
		if b.Total != 200 {
			t.Fatalf("replica Total = %d after sync", b.Total)
		}
	})
}

func TestReplicaRejectsStale(t *testing.T) {
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	v0, snap0, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(b **bank) error { return nil }); err != nil {
		t.Fatal(err)
	}
	v1, snap1, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica[*bank]()
	if err := r.Apply(v1, snap1); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(v0, snap0); !errors.Is(err, ErrStaleApply) {
		t.Fatalf("stale apply: %v", err)
	}
}

func TestReplicaIsolatedFromPrimary(t *testing.T) {
	// Mutating primary state after sync must not leak into the replica
	// (the snapshot is a deep copy).
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplica[*bank]()
	if err := r.SyncFrom(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(b **bank) error { (*b).Accounts[0].Balance.Set(-5); return nil }); err != nil {
		t.Fatal(err)
	}
	r.View(func(b *bank) {
		if b.Accounts[0].Balance.Get() != 100 {
			t.Fatal("replica shares memory with primary")
		}
	})
}

func TestNonCheckpointableRejectedUpFront(t *testing.T) {
	type bad struct {
		F func() //nolint:unused
	}
	if _, err := NewStore(&bad{}, 0); err == nil {
		t.Fatal("non-checkpointable initial value accepted")
	}
}

func TestConcurrentUpdatesSerialize(t *testing.T) {
	s, err := NewStore(newBank(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if err := s.Update(func(b **bank) error {
					(*b).Total++
					return nil
				}); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.View(func(b *bank) {
		if b.Total != 150+200 {
			t.Fatalf("Total = %d, want 350 (lost updates)", b.Total)
		}
	})
	if s.Version() != 200 {
		t.Fatalf("version = %d", s.Version())
	}
}

// Property: any sequence of committing and aborting transfers preserves
// the invariant total(a)+total(b) == 150: commits move money, aborts
// leave everything untouched.
func TestQuickTransfersPreserveTotal(t *testing.T) {
	f := func(ops []int8) bool {
		s, err := NewStore(newBank(), 0)
		if err != nil {
			return false
		}
		for _, op := range ops {
			amount := int(op)
			_ = s.Update(func(b **bank) error {
				from := (*b).Accounts[0]
				to := (*b).Accounts[1]
				from.Balance.Set(from.Balance.Get() - amount)
				to.Balance.Set(to.Balance.Get() + amount)
				if from.Balance.Get() < 0 || to.Balance.Get() < 0 {
					return fmt.Errorf("overdraft")
				}
				return nil
			})
		}
		ok := true
		s.View(func(b *bank) {
			sum := b.Accounts[0].Balance.Get() + b.Accounts[1].Balance.Get()
			if sum != 150 {
				ok = false
			}
			if b.Accounts[0].Balance.Get() < 0 || b.Accounts[1].Balance.Get() < 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
