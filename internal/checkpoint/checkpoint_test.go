package checkpoint

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/linear"
)

type point struct {
	X, Y int
}

type record struct {
	Name   string
	Vals   []int
	Next   *record
	Lookup map[string]int
}

func TestCheckpointScalarsAndStructs(t *testing.T) {
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(point{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.val.Interface().(point); got != (point{1, 2}) {
		t.Fatalf("Value = %+v", got)
	}
	var dst point
	if err := s.Restore(&dst); err != nil {
		t.Fatal(err)
	}
	if dst != (point{1, 2}) {
		t.Fatalf("Restore = %+v", dst)
	}
}

func TestCheckpointDeepStructure(t *testing.T) {
	orig := &record{
		Name:   "a",
		Vals:   []int{1, 2, 3},
		Lookup: map[string]int{"k": 9},
		Next:   &record{Name: "b", Vals: []int{4}},
	}
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the original; the snapshot must be unaffected.
	orig.Name = "mutated"
	orig.Vals[0] = 99
	orig.Lookup["k"] = -1
	orig.Next.Vals[0] = 77

	var got *record
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a" || got.Vals[0] != 1 || got.Lookup["k"] != 9 || got.Next.Vals[0] != 4 {
		t.Fatalf("snapshot contaminated by post-checkpoint mutation: %+v / next %+v", got, got.Next)
	}
	if got == orig || got.Next == orig.Next {
		t.Fatal("restore returned original pointers")
	}
	if s.Stats().Objects < 2 {
		t.Fatalf("Objects = %d, want >= 2", s.Stats().Objects)
	}
}

func TestCheckpointNilHandling(t *testing.T) {
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(&record{Name: "x"}) // nil Next, nil map, nil slice
	if err != nil {
		t.Fatal(err)
	}
	var got *record
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if got.Next != nil || got.Vals != nil || got.Lookup != nil {
		t.Fatal("nil fields not preserved")
	}
	if _, err := e.Checkpoint(nil); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Checkpoint(nil) err = %v", err)
	}
}

func TestCheckpointArraysAndInterfaces(t *testing.T) {
	type holder struct {
		Arr [3]*point
		Any any
	}
	h := holder{Arr: [3]*point{{X: 1}, nil, {X: 3}}, Any: &point{X: 7}}
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(h)
	if err != nil {
		t.Fatal(err)
	}
	var got holder
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if got.Arr[0].X != 1 || got.Arr[1] != nil || got.Arr[2].X != 3 {
		t.Fatalf("array mangled: %+v", got.Arr)
	}
	if got.Arr[0] == h.Arr[0] {
		t.Fatal("array element aliases original")
	}
	ip, ok := got.Any.(*point)
	if !ok || ip.X != 7 || ip == h.Any.(*point) {
		t.Fatal("interface payload not deep-copied")
	}
	var nilAny holder
	s2, err := e.Checkpoint(nilAny)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if got.Any != nil {
		t.Fatal("nil interface not preserved")
	}
}

func TestUnexportedFieldsRejected(t *testing.T) {
	type sneaky struct {
		Public int
		secret int //nolint:unused // intentional: triggers the error path
	}
	e := NewEngine(RcAware)
	_, err := e.Checkpoint(sneaky{Public: 1})
	if !errors.Is(err, ErrUnexported) {
		t.Fatalf("err = %v, want ErrUnexported", err)
	}
}

func TestUnsupportedKinds(t *testing.T) {
	e := NewEngine(RcAware)
	if _, err := e.Checkpoint(func() {}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("func: %v", err)
	}
	if _, err := e.Checkpoint(make(chan int)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("chan: %v", err)
	}
}

func TestRestoreIntoInterfaceDestination(t *testing.T) {
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(&point{X: 4})
	if err != nil {
		t.Fatal(err)
	}
	var dst any
	if err := s.Restore(&dst); err != nil {
		t.Fatalf("Restore into *any: %v", err)
	}
	p, ok := dst.(*point)
	if !ok || p.X != 4 {
		t.Fatalf("dst = %#v", dst)
	}
}

func TestMaterialize(t *testing.T) {
	e := NewEngine(RcAware)
	orig := &record{Name: "m", Vals: []int{1}}
	s, err := e.Checkpoint(orig)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*record)
	if !ok || got == orig || got.Name != "m" {
		t.Fatalf("Materialize = %#v", v)
	}
	// Independent copies each call.
	v2, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if v2.(*record) == got {
		t.Fatal("Materialize returned the same object twice")
	}
}

func TestRestoreValidation(t *testing.T) {
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(point{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(nil); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Restore(nil): %v", err)
	}
	var wrong int
	if err := s.Restore(&wrong); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Restore wrong type: %v", err)
	}
	var notPtr point
	if err := s.Restore(notPtr); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Restore non-pointer: %v", err)
	}
}

// --- Rc sharing semantics (the heart of §5 / Figure 3) ---

type rule struct {
	ID     int
	Action string
}

type db struct {
	// Two slots that may alias the same rule, as two trie leaves would.
	A, B linear.Rc[rule]
}

func TestRcAwarePreservesSharing(t *testing.T) {
	shared := linear.NewRc(rule{ID: 1, Action: "allow"})
	d := db{A: shared, B: shared.Clone()}
	if !d.A.SameBox(d.B) {
		t.Fatal("setup: not aliased")
	}
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RcFirst != 1 || st.RcReused != 1 {
		t.Fatalf("stats = %+v, want 1 copy + 1 reuse", st)
	}
	var got db
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if !got.A.SameBox(got.B) {
		t.Fatal("restored copies not aliased: sharing lost")
	}
	if got.A.SameBox(d.A) {
		t.Fatal("restored Rc aliases the original box")
	}
	if got.A.Get().ID != 1 {
		t.Fatalf("value = %+v", got.A.Get())
	}
	// Mutation through one restored alias is visible through the other —
	// alias semantics fully reproduced.
	got.A.Set(rule{ID: 2, Action: "deny"})
	if got.B.Get().ID != 2 {
		t.Fatal("restored aliases not actually shared")
	}
	// And the original is untouched.
	if d.A.Get().ID != 1 {
		t.Fatal("original mutated")
	}
}

func TestNaiveDuplicatesSharedRule(t *testing.T) {
	// Figure 3b: naive traversal creates multiple copies of rule 1.
	shared := linear.NewRc(rule{ID: 1})
	d := db{A: shared, B: shared.Clone()}
	e := NewEngine(Naive)
	s, err := e.Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().RcFirst != 2 {
		t.Fatalf("RcFirst = %d, want 2 (duplicate copies)", s.Stats().RcFirst)
	}
	var got db
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if got.A.SameBox(got.B) {
		t.Fatal("naive mode unexpectedly preserved sharing")
	}
}

func TestVisitedSetPreservesSharingWithProbes(t *testing.T) {
	shared := linear.NewRc(rule{ID: 1})
	d := db{A: shared, B: shared.Clone()}
	e := NewEngine(VisitedSet)
	s, err := e.Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RcFirst != 1 || st.RcReused != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SetProbes < 2 {
		t.Fatalf("SetProbes = %d, want >= 2", st.SetProbes)
	}
	var got db
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if !got.A.SameBox(got.B) {
		t.Fatal("visited-set mode lost sharing")
	}
}

// TestRestoredAliasesCountTheirHandles: in every mode that keeps sharing,
// a copied box holds one strong handle per handle naming it — in the
// snapshot and in every restore — so dropping all but one alias leaves the
// value readable through the last.
func TestRestoredAliasesCountTheirHandles(t *testing.T) {
	type graph struct{ A, B, C linear.Rc[int] }
	shared := linear.NewRc(7)
	g := &graph{A: shared, B: shared.Clone(), C: shared.Clone()}
	for _, mode := range []Mode{RcAware, VisitedSet} {
		s, err := NewEngine(mode).Checkpoint(g)
		if err != nil {
			t.Fatal(err)
		}
		var got *graph
		if err := s.Restore(&got); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*graph{"snapshot": s.val.Interface().(*graph), "restore": got} {
			if !c.A.SameBox(c.B) || !c.A.SameBox(c.C) {
				t.Fatalf("%s %s: sharing lost", mode, name)
			}
			if n := c.A.StrongCount(); n != 3 {
				t.Fatalf("%s %s: StrongCount = %d, want 3 (one per handle)", mode, name, n)
			}
		}
		if err := got.A.Drop(); err != nil {
			t.Fatal(err)
		}
		if err := got.B.Drop(); err != nil {
			t.Fatal(err)
		}
		if got.C.StrongCount() == 0 || got.C.Get() != 7 {
			t.Fatalf("%s: last alias reads %d strong, value %d after its siblings dropped", mode, got.C.StrongCount(), got.C.Get())
		}
	}
}

func TestRepeatedCheckpointsIndependentEpochs(t *testing.T) {
	// The paper's flag must reset between checkpoints: a second
	// checkpoint must copy again, not reuse the first run's copy.
	shared := linear.NewRc(rule{ID: 1})
	d := db{A: shared, B: shared.Clone()}
	e := NewEngine(RcAware)
	s1, err := e.Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	shared.Set(rule{ID: 2})
	s2, err := e.Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	var g1, g2 db
	if err := s1.Restore(&g1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(&g2); err != nil {
		t.Fatal(err)
	}
	if g1.A.Get().ID != 1 || g2.A.Get().ID != 2 {
		t.Fatalf("epoch confusion: s1=%d s2=%d", g1.A.Get().ID, g2.A.Get().ID)
	}
	if s2.Stats().RcFirst != 1 || s2.Stats().RcReused != 1 {
		t.Fatalf("second run stats = %+v", s2.Stats())
	}
}

type cyclic struct {
	ID   int
	Peer linear.Rc[*cyclic]
}

func TestCyclicGraphThroughRc(t *testing.T) {
	// a.Peer -> b, b.Peer -> a: a cycle, expressible only through Rc in
	// the linear regime. The epoch flag must terminate the traversal.
	a := &cyclic{ID: 1}
	b := &cyclic{ID: 2}
	ra := linear.NewRc(a)
	rb := linear.NewRc(b)
	a.Peer = rb
	b.Peer = ra

	e := NewEngine(RcAware)
	s, err := e.Checkpoint(ra)
	if err != nil {
		t.Fatal(err)
	}
	var got linear.Rc[*cyclic]
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	ga := got.Get()
	gb := ga.Peer.Get()
	if ga.ID != 1 || gb.ID != 2 {
		t.Fatalf("ids = %d,%d", ga.ID, gb.ID)
	}
	// The cycle is closed in the copy and points at the copy, not the
	// original.
	if gb.Peer.Get() != ga {
		t.Fatal("cycle not closed in the restored graph")
	}
	if ga == a || gb == b {
		t.Fatal("restored graph aliases original nodes")
	}
}

func TestVisitedSetHandlesPlainPointerDiamond(t *testing.T) {
	// Conventional-language scenario: plain-pointer aliasing (which the
	// linear regime forbids, but VisitedSet mode exists to model). Build a
	// diamond with plain pointers and confirm visited-set preserves it
	// while the unique-owner modes duplicate.
	leaf := &point{X: 5}
	type diamond struct{ L, R *point }
	d := diamond{L: leaf, R: leaf}

	vs, err := NewEngine(VisitedSet).Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	var gv diamond
	if err := vs.Restore(&gv); err != nil {
		t.Fatal(err)
	}
	if gv.L != gv.R {
		t.Fatal("visited-set lost plain-pointer sharing")
	}

	na, err := NewEngine(RcAware).Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	var gn diamond
	if err := na.Restore(&gn); err != nil {
		t.Fatal(err)
	}
	if gn.L == gn.R {
		t.Fatal("unique-owner mode should duplicate plain-pointer aliases")
	}
	if gn.L.X != 5 || gn.R.X != 5 {
		t.Fatal("values wrong")
	}
}

func TestCustomCheckpointable(t *testing.T) {
	e := NewEngine(RcAware)
	s, err := e.Checkpoint(secretive{Hidden: 3})
	if err != nil {
		t.Fatalf("custom Checkpointable not honored: %v", err)
	}
	var got secretive
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if got.Hidden != 3 || got.copies == 0 {
		t.Fatalf("got = %+v", got)
	}
}

// secretive has an unexported field, so derivation would fail; it
// implements Checkpointable to take control.
type secretive struct {
	Hidden int
	copies int
}

func (s secretive) CheckpointCopy(clone func(any) (any, error)) (any, error) {
	return secretive{Hidden: s.Hidden, copies: s.copies + 1}, nil
}

func TestRcZeroAndPanics(t *testing.T) {
	var z linear.Rc[int]
	if !z.IsZero() || z.StrongCount() != 0 {
		t.Fatal("zero Rc misbehaves")
	}
	// A zero handle has no box to visit: every mode copies it as it is.
	for _, mode := range []Mode{RcAware, Naive, VisitedSet} {
		s, err := NewEngine(mode).Checkpoint(db{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var got db
		if err := s.Restore(&got); err != nil || !got.A.IsZero() || !got.B.IsZero() || s.Stats() != (Stats{}) {
			t.Fatalf("%v: zero handles came back as %+v, stats %+v, err %v", mode, got, s.Stats(), err)
		}
	}
	for name, fn := range map[string]func(){
		"Get":   func() { z.Get() },
		"Set":   func() { z.Set(1) },
		"Peek":  func() { z.Peek() },
		"Clone": func() { z.Clone() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on zero Rc did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRcCloneCountsAndSet(t *testing.T) {
	r := linear.NewRc(10)
	c := r.Clone()
	if r.StrongCount() != 2 {
		t.Fatalf("count = %d", r.StrongCount())
	}
	c.Set(20)
	if r.Get() != 20 {
		t.Fatal("Set not visible through alias")
	}
}

// TestRcOneCellServesBothLayers: the paper's two mechanisms on one box.
// §3's reference table holds the strong handle and hands out a Weak (what
// sfi.exportAt does); the same box is aliased into a state graph and
// checkpointed by §5's flag; then the table revokes. The weak handle
// fails closed, and the snapshot — boxes of its own — neither notices nor
// keeps the revoked value reachable through the original.
func TestRcOneCellServesBothLayers(t *testing.T) {
	table := linear.NewRc(rule{ID: 1, Action: "allow"}) // the reference table's proxy
	weak := table.Downgrade()                           // the client's RRef
	d := db{A: table.Clone(), B: table.Clone()}         // two leaves sharing the rule
	if table.StrongCount() != 3 {
		t.Fatalf("setup: %d strong", table.StrongCount())
	}

	s, err := NewEngine(RcAware).Checkpoint(d)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RcFirst != 1 || st.RcReused != 1 {
		t.Fatalf("stats = %+v, want one copy and one reuse", st)
	}
	if table.StrongCount() != 3 {
		t.Fatalf("the traversal moved the original's count: %d strong", table.StrongCount())
	}
	call, ok := weak.Upgrade() // an invocation in flight holds a strong handle
	if !ok || call.Peek().ID != 1 {
		t.Fatal("Upgrade failed with the table entry installed")
	}

	for _, h := range []linear.Rc[rule]{call, d.A, d.B, table} {
		if w, ok := weak.Upgrade(); !ok {
			t.Fatal("the value died before its last strong handle")
		} else if err := w.Drop(); err != nil {
			t.Fatal(err)
		}
		if err := h.Drop(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := weak.Upgrade(); ok {
		t.Fatal("Upgrade succeeded after the last strong handle was dropped")
	}
	if err := table.Drop(); err == nil {
		t.Fatal("Drop below zero succeeded")
	}

	var got db
	if err := s.Restore(&got); err != nil {
		t.Fatal(err)
	}
	if !got.A.SameBox(got.B) || got.A.SameBox(table) || got.A.Get() != (rule{ID: 1, Action: "allow"}) {
		t.Fatalf("restored %+v / %+v", got.A.Get(), got.B.Get())
	}
	if got.A.StrongCount() != 2 {
		t.Fatalf("restored box: %d strong, want one per alias", got.A.StrongCount())
	}
	snap := s.val.Interface().(db)
	if snap.A.StrongCount() != 2 {
		t.Fatalf("the snapshot's own copy: %d strong", snap.A.StrongCount())
	}
}

func TestConcurrentMutationDuringCheckpoint(t *testing.T) {
	// §5: "adds the checkpointing capability ... in an efficient and
	// thread-safe way". Mutators race with checkpoints; every snapshot
	// must contain a value that was valid at some point (no torn reads)
	// and the engine must not crash.
	shared := linear.NewRc(rule{ID: 0, Action: "allow"})
	d := db{A: shared, B: shared.Clone()}
	e := NewEngine(RcAware)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			shared.Set(rule{ID: i, Action: "allow"})
		}
	}()
	for i := 0; i < 200; i++ {
		s, err := e.Checkpoint(d)
		if err != nil {
			t.Fatal(err)
		}
		var got db
		if err := s.Restore(&got); err != nil {
			t.Fatal(err)
		}
		if got.A.Get().Action != "allow" {
			t.Fatal("torn read")
		}
		if !got.A.SameBox(got.B) {
			t.Fatal("sharing lost under concurrency")
		}
	}
	close(stop)
	wg.Wait()
}

// Property: for a random tree of Rc-shared leaves, RcAware checkpoint
// count equals the number of distinct boxes, and reuses equal total
// handles minus distinct boxes.
func TestQuickRcCopyCounts(t *testing.T) {
	f := func(pattern []uint8) bool {
		if len(pattern) == 0 {
			return true
		}
		if len(pattern) > 24 {
			pattern = pattern[:24]
		}
		// Build a pool of up to 4 distinct shared rules, then a slice of
		// handles chosen by pattern.
		pool := []linear.Rc[rule]{linear.NewRc(rule{ID: 0}), linear.NewRc(rule{ID: 1}), linear.NewRc(rule{ID: 2}), linear.NewRc(rule{ID: 3})}
		used := map[int]bool{}
		handles := make([]linear.Rc[rule], 0, len(pattern))
		for _, p := range pattern {
			i := int(p) % len(pool)
			used[i] = true
			handles = append(handles, pool[i].Clone())
		}
		s, err := NewEngine(RcAware).Checkpoint(handles)
		if err != nil {
			return false
		}
		st := s.Stats()
		return st.RcFirst == len(used) && st.RcReused == len(handles)-len(used)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: restore(checkpoint(x)) == x for value trees without sharing.
func TestQuickRoundTrip(t *testing.T) {
	f := func(name string, vals []int, k string, v int) bool {
		orig := &record{Name: name, Vals: vals, Lookup: map[string]int{k: v}}
		s, err := NewEngine(RcAware).Checkpoint(orig)
		if err != nil {
			return false
		}
		var got *record
		if err := s.Restore(&got); err != nil {
			return false
		}
		if got.Name != name || len(got.Vals) != len(vals) || got.Lookup[k] != v {
			return false
		}
		for i := range vals {
			if got.Vals[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if RcAware.String() != "rc-aware" || Naive.String() != "naive" || VisitedSet.String() != "visited-set" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode name wrong")
	}
}
