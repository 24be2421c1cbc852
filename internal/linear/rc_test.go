package linear

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRcCloneAndCounts(t *testing.T) {
	r := NewRc("hello")
	if r.StrongCount() != 1 {
		t.Fatalf("StrongCount = %d, want 1", r.StrongCount())
	}
	c := r.Clone()
	if r.StrongCount() != 2 || c.StrongCount() != 2 {
		t.Fatalf("StrongCount after clone = %d", r.StrongCount())
	}
	if r.Get() != "hello" || c.Get() != "hello" {
		t.Fatal("clone sees different value")
	}
	if !r.SameBox(c) {
		t.Fatal("clone is not same box")
	}
	if err := c.Drop(); err != nil {
		t.Fatal(err)
	}
	if r.StrongCount() != 1 {
		t.Fatalf("StrongCount after drop = %d", r.StrongCount())
	}
}

func TestRcDropToZeroClearsValue(t *testing.T) {
	r := NewRc([]byte{1, 2, 3})
	w := r.Downgrade()
	if err := r.Drop(); err != nil {
		t.Fatal(err)
	}
	if r.StrongCount() > 0 {
		t.Fatal("Alive after last drop")
	}
	if _, ok := w.Upgrade(); ok {
		t.Fatal("Upgrade succeeded after value died")
	}
	if err := r.Drop(); err == nil {
		t.Fatal("double Drop to below zero succeeded")
	}
}

// TestRcDropN: n handles go at once, never the last one.
func TestRcDropN(t *testing.T) {
	r := NewRc(7)
	for i := 0; i < 4; i++ {
		r.Clone()
	}
	if err := r.DropN(3); err != nil || r.StrongCount() != 2 {
		t.Fatalf("DropN(3) of 5: err %v, StrongCount %d, want 2", err, r.StrongCount())
	}
	for _, n := range []int64{2, 3, -1} {
		if err := r.DropN(n); err == nil || r.StrongCount() != 2 {
			t.Fatalf("DropN(%d) of 2 released (err %v, StrongCount %d); it must leave one and release nothing otherwise", n, err, r.StrongCount())
		}
	}
	if err := r.DropN(1); err != nil || r.StrongCount() != 1 || r.Get() != 7 {
		t.Fatalf("DropN(1) of 2: err %v, StrongCount %d", err, r.StrongCount())
	}
	if err := r.DropN(0); err != nil || r.StrongCount() != 1 {
		t.Fatalf("DropN(0): err %v, StrongCount %d", err, r.StrongCount())
	}
	if err := (Rc[int]{}).DropN(0); err == nil {
		t.Fatal("DropN on the zero Rc succeeded")
	}
}

func TestWeakUpgradeKeepsAlive(t *testing.T) {
	r := NewRc(7)
	w := r.Downgrade()
	if r.weakCount() != 1 {
		t.Fatalf("WeakCount = %d, want 1", r.weakCount())
	}
	s, ok := w.Upgrade()
	if !ok {
		t.Fatal("Upgrade failed while strong ref exists")
	}
	if s.Get() != 7 {
		t.Fatalf("upgraded value = %d", s.Get())
	}
	// Drop the original; the upgraded handle still keeps it alive.
	if err := r.Drop(); err != nil {
		t.Fatal(err)
	}
	if !w.alive() {
		t.Fatal("value died while upgraded handle outstanding")
	}
	if err := s.Drop(); err != nil {
		t.Fatal(err)
	}
	if w.alive() {
		t.Fatal("value alive after all strong handles dropped")
	}
	w.Drop()
}

func TestZeroWeakUpgradeFails(t *testing.T) {
	var w Weak[int]
	if _, ok := w.Upgrade(); ok {
		t.Fatal("zero Weak upgraded")
	}
	if w.alive() {
		t.Fatal("zero Weak alive")
	}
	w.Drop() // must not panic
}

// Property: after c clones and c drops, the value is alive iff the net
// handle count is positive, and exactly dies at zero.
func TestQuickRcRefcountInvariant(t *testing.T) {
	f := func(clones uint8) bool {
		n := int(clones%20) + 1
		r := NewRc(42)
		handles := []Rc[int]{r}
		for i := 0; i < n; i++ {
			handles = append(handles, r.Clone())
		}
		if r.StrongCount() != int64(n+1) {
			return false
		}
		for i, h := range handles {
			if h.StrongCount() == 0 {
				return false
			}
			if err := h.Drop(); err != nil {
				return false
			}
			alive := r.StrongCount() > 0
			if i < len(handles)-1 && !alive {
				return false
			}
			if i == len(handles)-1 && alive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Concurrent upgrade/drop race: upgrades must never resurrect a dead value
// and every successful upgrade must observe the live value.
func TestConcurrentWeakUpgradeRace(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		r := NewRc(99)
		w := r.Downgrade()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = r.Drop()
		}()
		go func() {
			defer wg.Done()
			if s, ok := w.Upgrade(); ok {
				if s.Get() != 99 {
					t.Errorf("upgraded handle saw cleared value")
				}
				_ = s.Drop()
			}
		}()
		wg.Wait()
		if w.alive() {
			t.Fatal("value alive after all drops")
		}
	}
}

func BenchmarkAblationOwnedBorrow(b *testing.B) {
	o := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, _ := o.Borrow()
		_ = r.Value()
		_ = r.Release()
	}
}

func BenchmarkAblationOwnedMove(b *testing.B) {
	o := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, _ = o.Move()
	}
}

func BenchmarkAblationBarePointer(b *testing.B) {
	v := 1
	p := &v
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = *p
	}
	_ = sink
}

func BenchmarkRcCloneDrop(b *testing.B) {
	r := NewRc(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := r.Clone()
		_ = c.Drop()
	}
}

func BenchmarkWeakUpgrade(b *testing.B) {
	r := NewRc(1)
	w := r.Downgrade()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := w.Upgrade()
		_ = s.Drop()
	}
}
