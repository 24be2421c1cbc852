package checkpoint_test

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/linear"
)

type policy struct {
	Name string
}

type router struct {
	// Two routes sharing one policy object — the Figure 3a shape.
	RouteA, RouteB linear.Rc[policy]
	Hops           []string
}

// Example reproduces Figure 3 in miniature: the Rc-aware engine copies
// the shared policy once and the restored graph preserves the aliasing;
// the naive engine duplicates it.
func Example() {
	shared := linear.NewRc(policy{Name: "allow-web"})
	r := &router{RouteA: shared, RouteB: shared.Clone(), Hops: []string{"a", "b"}}

	snap, _ := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(r)
	var restored *router
	_ = snap.Restore(&restored)
	fmt.Println("rc-aware copies:", snap.Stats().RcFirst)
	fmt.Println("sharing preserved:", restored.RouteA.SameBox(restored.RouteB))

	naive, _ := checkpoint.NewEngine(checkpoint.Naive).Checkpoint(r)
	var dup *router
	_ = naive.Restore(&dup)
	fmt.Println("naive copies:", naive.Stats().RcFirst)
	fmt.Println("naive duplicated:", !dup.RouteA.SameBox(dup.RouteB))
	// Output:
	// rc-aware copies: 1
	// sharing preserved: true
	// naive copies: 2
	// naive duplicated: true
}

// ExampleSnapshot_Restore shows that snapshots are immune to later
// mutation of the live graph — the checkpoint/rollback property.
func ExampleSnapshot_Restore() {
	live := &router{RouteA: linear.NewRc(policy{Name: "v1"})}
	live.RouteB = live.RouteA.Clone()
	snap, _ := checkpoint.NewEngine(checkpoint.RcAware).Checkpoint(live)

	live.RouteA.Set(policy{Name: "v2-corrupted"})

	var rolledBack *router
	_ = snap.Restore(&rolledBack)
	fmt.Println("live:", live.RouteA.Get().Name)
	fmt.Println("restored:", rolledBack.RouteA.Get().Name)
	// Output:
	// live: v2-corrupted
	// restored: v1
}
