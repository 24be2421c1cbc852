package linear

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// identity is CheckpointVisit's clone for a value type: an int needs no
// deep copy.
func identity(v any) (any, error) { return v, nil }

// TestRcCheckpointVisitFlag pins the §5 flag that replaced the box's
// never-used mark word: one copy per epoch whichever alias is visited,
// a new copy in the next epoch, and the always-fresh form that leaves
// the flag alone.
func TestRcCheckpointVisitFlag(t *testing.T) {
	r := NewRc(1)
	alias := r.Clone()
	visit := func(h Rc[int], epoch uint64) (Rc[int], bool) {
		t.Helper()
		cp, first, err := h.CheckpointVisit(epoch, identity, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cp.(Rc[int]), first
	}
	c1, first := visit(r, 7)
	if !first || c1.SameBox(r) || c1.Get() != 1 || c1.StrongCount() != 1 || c1.weakCount() != 0 {
		t.Fatalf("first visit: first=%v same=%v val=%d strong=%d", first, c1.SameBox(r), c1.Get(), c1.StrongCount())
	}
	c2, first := visit(alias, 7)
	if first || !c2.SameBox(c1) || c1.StrongCount() != 2 {
		t.Fatalf("second visit through an alias: first=%v same=%v strong=%d", first, c2.SameBox(c1), c1.StrongCount())
	}
	// The copy is a box of its own: the original moves on without it.
	r.Set(2)
	if c1.Get() != 1 {
		t.Fatal("Set on the original reached the copy")
	}
	c3, first := visit(alias, 8)
	if !first || c3.SameBox(c1) || c3.Get() != 2 {
		t.Fatalf("next epoch: first=%v same=%v val=%d", first, c3.SameBox(c1), c3.Get())
	}
	// Epoch 0: always fresh, registered before the value is cloned, and
	// the flag still says epoch 8.
	var pre Rc[int]
	cp, first, err := r.CheckpointVisit(0, func(v any) (any, error) {
		if pre.IsZero() {
			t.Error("pre ran after clone")
		}
		return v, nil
	}, func(orig, cp any) {
		if orig != any(r) {
			t.Error("pre was not handed the visited handle")
		}
		pre = cp.(Rc[int])
	})
	if err != nil || !first || !pre.SameBox(cp.(Rc[int])) || pre.SameBox(c3) {
		t.Fatalf("fresh form: first=%v err=%v", first, err)
	}
	if c4, first := visit(r, 8); first || !c4.SameBox(c3) {
		t.Fatal("the fresh form disturbed the epoch flag")
	}
	// The original never counted the visits, and its last Drop lets go of
	// the copy it pointed at.
	if r.StrongCount() != 2 {
		t.Fatalf("visits changed the original's count: %d", r.StrongCount())
	}
	_, _ = r.Drop(), alias.Drop()
	if r.box.cp != nil || r.box.epoch != 0 || r.box.val != 0 {
		t.Fatal("last Drop left the value or the flag behind")
	}
	if c3.Get() != 2 || c3.StrongCount() != 2 {
		t.Fatal("dropping the original touched its copy")
	}
}

// rcModel is the oracle: plain counters and the value last Set.
type rcModel struct {
	strong, weak int64
	val          int
}

// TestRcModel drives one box with seeded random Clone / Drop / Downgrade /
// Upgrade / Set / checkpoint visits and compares it with plain counters
// after every step; then does the same from several goroutines at once
// (run it under -race) and compares at the join.
func TestRcModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("sequential/seed=%d", seed), func(t *testing.T) { modelSequential(t, seed) })
		t.Run(fmt.Sprintf("concurrent/seed=%d", seed), func(t *testing.T) { modelConcurrent(t, seed) })
	}
}

func modelSequential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	root := NewRc(0)
	box := root.box
	m := rcModel{strong: 1}
	strong, weak := []Rc[int]{root}, []Weak[int]{}
	epoch := uint64(0)
	var lastCopy Rc[int]
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(7); {
		case m.strong == 0:
			// Dead for good: nothing upgrades, clones or drops any more.
			if len(weak) > 0 {
				if _, ok := weak[rng.Intn(len(weak))].Upgrade(); ok {
					t.Fatalf("step %d: Upgrade resurrected a dead box", step)
				}
			}
			if err := root.Drop(); err == nil {
				t.Fatalf("step %d: Drop below zero succeeded", step)
			}
		case op == 0:
			strong = append(strong, strong[rng.Intn(len(strong))].Clone())
			m.strong++
		case op == 1:
			// Keep the last handle for the final ten percent of the run,
			// so most of the walk is over a live box.
			if len(strong) == 1 && step < 1800 {
				continue
			}
			i := rng.Intn(len(strong))
			if err := strong[i].Drop(); err != nil {
				t.Fatalf("step %d: Drop: %v", step, err)
			}
			strong = append(strong[:i], strong[i+1:]...)
			m.strong--
			if m.strong == 0 {
				m.val = 0 // cleared exactly here, not before (checked below)
			}
		case op == 2:
			weak = append(weak, strong[rng.Intn(len(strong))].Downgrade())
			m.weak++
		case op == 3 && len(weak) > 0:
			h, ok := weak[rng.Intn(len(weak))].Upgrade()
			if !ok {
				t.Fatalf("step %d: Upgrade failed with %d strong handles", step, m.strong)
			}
			strong = append(strong, h)
			m.strong++
		case op == 4 && len(weak) > 0:
			i := rng.Intn(len(weak))
			weak[i].Drop()
			weak = append(weak[:i], weak[i+1:]...)
			m.weak--
		case op == 5:
			m.val = rng.Int()
			strong[rng.Intn(len(strong))].Set(m.val)
		case op == 6:
			// Two visits in one epoch through two aliases: one copy. The
			// next epoch: a new one.
			epoch++
			a, b := strong[rng.Intn(len(strong))], strong[rng.Intn(len(strong))]
			ca, firstA, _ := a.CheckpointVisit(epoch, identity, nil)
			cb, firstB, _ := b.CheckpointVisit(epoch, identity, nil)
			cp := ca.(Rc[int])
			if !firstA || firstB || !cp.SameBox(cb.(Rc[int])) || cp.StrongCount() != 2 || cp.Get() != m.val {
				t.Fatalf("step %d: visits gave first=%v,%v same=%v strong=%d val=%d want %d",
					step, firstA, firstB, cp.SameBox(cb.(Rc[int])), cp.StrongCount(), cp.Get(), m.val)
			}
			if cp.SameBox(root) || cp.SameBox(lastCopy) {
				t.Fatalf("step %d: epoch %d handed out an old box", step, epoch)
			}
			lastCopy = cp
		}
		if got, gotW := root.StrongCount(), root.weakCount(); got != m.strong || gotW != m.weak {
			t.Fatalf("step %d: counts %d strong %d weak, model %d %d", step, got, gotW, m.strong, m.weak)
		}
		if box.val != m.val || (m.strong == 0 && box.cp != nil) {
			t.Fatalf("step %d: box holds %d (copy %v), model %d with %d strong", step, box.val, box.cp != nil, m.val, m.strong)
		}
	}
}

func modelConcurrent(t *testing.T, seed int64) {
	root := NewRc(0)
	const workers = 4
	var strong, weak atomic.Int64 // what the workers still hold at the join
	var wg sync.WaitGroup
	held := make([][]Rc[int], workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			mine, weaks := []Rc[int]{root.Clone()}, []Weak[int]{}
			for step := 0; step < 2000; step++ {
				h := mine[rng.Intn(len(mine))]
				switch rng.Intn(7) {
				case 0:
					mine = append(mine, h.Clone())
				case 1:
					if len(mine) > 1 {
						_ = mine[len(mine)-1].Drop()
						mine = mine[:len(mine)-1]
					}
				case 2:
					weaks = append(weaks, h.Downgrade())
				case 3:
					if len(weaks) > 0 {
						up, ok := weaks[rng.Intn(len(weaks))].Upgrade()
						if !ok {
							t.Error("Upgrade failed while its own worker holds a strong handle")
							return
						}
						mine = append(mine, up)
					}
				case 4:
					if len(weaks) > 0 {
						weaks[len(weaks)-1].Drop()
						weaks = weaks[:len(weaks)-1]
					}
				case 5:
					h.Set(w<<20 | step)
				case 6:
					// Whole traversals are serialized (two at once may
					// each lose the other's flag), so one worker visits;
					// the others' Clone/Drop/Set still run beside it.
					if w != 0 {
						_ = h.Get()
						continue
					}
					epoch := uint64(step + 1)
					ca, _, _ := h.CheckpointVisit(epoch, identity, nil)
					cb, first, _ := mine[0].CheckpointVisit(epoch, identity, nil)
					if cp := ca.(Rc[int]); first || !cp.SameBox(cb.(Rc[int])) {
						t.Error("a concurrent Clone, Drop or Set split one epoch's copy")
						return
					} else if v := cp.Get(); v != 0 && (v>>20 >= workers || v&(1<<20-1) >= 2000) {
						t.Errorf("copy holds %#x, which nobody Set", v)
						return
					}
				}
			}
			strong.Add(int64(len(mine)))
			weak.Add(int64(len(weaks)))
			held[w] = mine
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got, gotW := root.StrongCount(), root.weakCount(); got != strong.Load()+1 || gotW != weak.Load() {
		t.Fatalf("at the join: %d strong %d weak, workers hold %d+1 and %d", got, gotW, strong.Load(), weak.Load())
	}
	last := root.Get()
	for _, mine := range held {
		for _, h := range mine {
			if root.StrongCount() == 0 || *root.Peek() != last {
				t.Fatal("value cleared before the last Drop")
			}
			_ = h.Drop()
		}
	}
	if err := root.Drop(); err != nil || root.StrongCount() != 0 || root.box.val != 0 || root.box.cp != nil {
		t.Fatalf("last Drop: err=%v strong=%d val=%d", err, root.StrongCount(), root.box.val)
	}
}
