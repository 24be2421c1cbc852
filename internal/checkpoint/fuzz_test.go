package checkpoint_test

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/linear"
)

// fuzzNode is one vertex of the fuzz graph: plain data plus an Rc
// handle that may share its box with other nodes.
type fuzzNode struct {
	ID  int
	Ref linear.Rc[int]
}

// fuzzGraph is the checkpointed root: a slice of unique node pointers
// (sharing happens only through Rc, the structure the engine's modes
// disagree about) plus a plain map.
type fuzzGraph struct {
	Nodes []*fuzzNode
	M     map[int]int
}

// FuzzCheckpointRestore builds an arbitrary Rc-sharing graph from the
// input, checkpoints it under the input-selected mode, mutates the
// original, and asserts the snapshot contract:
//
//  1. Round-trip equality: Materialize reproduces the values as they
//     were at checkpoint time, untouched by later mutation.
//  2. Sharing: RcAware and VisitedSet reproduce the alias structure
//     exactly (nodes that shared a box still do, nodes that did not
//     still do not); Naive duplicates every shared box (Figure 3b).
//  3. Token reuse: a second Materialize yields a fresh, independent
//     clone — mutating the first clone never shows through.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 2, 1, 0})          // rc-aware, interleaved sharing
	f.Add([]byte{1, 2, 0, 0, 0})                // naive, one box shared 3x
	f.Add([]byte{2, 5, 4, 3, 2, 1, 0, 1, 2})    // visited-set, mixed
	f.Add([]byte{0, 1, 9})                      // single box
	f.Add([]byte{2, 7, 0, 0, 1, 1, 2, 2, 3, 3}) // paired sharing
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		mode := checkpoint.Mode(int(data[0]) % 3)
		nBoxes := int(data[1])%7 + 1
		boxes := make([]linear.Rc[int], nBoxes)
		for i := range boxes {
			boxes[i] = linear.NewRc(i * 100)
		}
		assign := data[2:]
		if len(assign) > 32 {
			assign = assign[:32]
		}
		g := &fuzzGraph{M: make(map[int]int)}
		boxOf := make([]int, len(assign)) // node index -> box index
		for i, b := range assign {
			bi := int(b) % nBoxes
			boxOf[i] = bi
			g.Nodes = append(g.Nodes, &fuzzNode{ID: i, Ref: boxes[bi].Clone()})
			g.M[i] = bi
		}

		e := checkpoint.NewEngine(mode)
		snap, err := e.Checkpoint(g)
		if err != nil {
			t.Fatal(err)
		}

		// Mutate the original after the checkpoint: the snapshot must be
		// isolated from all of it.
		for _, n := range g.Nodes {
			n.ID += 1000
		}
		for _, b := range boxes {
			b.Set(b.Get() + 7)
		}
		g.M[len(assign)+1] = -1

		verify := func(v any) *fuzzGraph {
			t.Helper()
			c, ok := v.(*fuzzGraph)
			if !ok {
				t.Fatalf("materialized %T", v)
			}
			if len(c.Nodes) != len(assign) || len(c.M) != len(g.M)-1 {
				t.Fatalf("clone shape: %d nodes / %d map entries, want %d / %d",
					len(c.Nodes), len(c.M), len(assign), len(g.M)-1)
			}
			for i, n := range c.Nodes {
				if n.ID != i {
					t.Fatalf("node %d: ID %d, want %d (post-checkpoint mutation leaked in)", i, n.ID, i)
				}
				if got, want := n.Ref.Get(), boxOf[i]*100; got != want {
					t.Fatalf("node %d: Rc value %d, want %d", i, got, want)
				}
				if c.M[i] != boxOf[i] {
					t.Fatalf("map entry %d: %d, want %d", i, c.M[i], boxOf[i])
				}
			}
			for i := 0; i < len(c.Nodes); i++ {
				for j := i + 1; j < len(c.Nodes); j++ {
					same := c.Nodes[i].Ref.SameBox(c.Nodes[j].Ref)
					sharedOrig := boxOf[i] == boxOf[j]
					switch mode {
					case checkpoint.Naive:
						// Figure 3b: every handle gets its own duplicate.
						if same {
							t.Fatalf("naive mode shared a box between nodes %d and %d", i, j)
						}
					default: // RcAware, VisitedSet preserve aliasing exactly
						if same != sharedOrig {
							t.Fatalf("%v mode: nodes %d,%d sharing=%v, original sharing=%v",
								mode, i, j, same, sharedOrig)
						}
					}
				}
			}
			return c
		}

		v1, err := snap.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		c1 := verify(v1)

		// Token reuse: wreck the first clone, materialize again, verify
		// the second is pristine and box-disjoint from the first.
		for _, n := range c1.Nodes {
			n.Ref.Set(-999)
			n.ID = -1
		}
		v2, err := snap.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		c2 := verify(v2)
		for i := range c1.Nodes {
			if c1.Nodes[i].Ref.SameBox(c2.Nodes[i].Ref) {
				t.Fatalf("materialized clones share box at node %d: tokens are not independently restorable", i)
			}
		}
	})
}
