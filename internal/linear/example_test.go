package linear_test

import (
	"errors"
	"fmt"

	"repro/internal/linear"
)

// Example mirrors the paper's §2 take/borrow listing: a move consumes the
// binding, a borrow preserves it.
func Example() {
	take := func(v linear.Owned[[]int]) { _ = v.Drop() }
	borrow := func(v *linear.Ref[[]int]) { _ = v.Value() }

	v1 := linear.New([]int{1, 2, 3})
	v2 := linear.New([]int{1, 2, 3})

	moved, _ := v1.Move()
	take(moved)
	_, err := v1.Borrow()
	fmt.Println("v1 after take:", errors.Is(err, linear.ErrMoved))

	r, _ := v2.Borrow()
	borrow(r)
	_ = r.Release()
	fmt.Println("v2 after borrow:", v2.Valid())
	// Output:
	// v1 after take: true
	// v2 after borrow: true
}

// ExampleRc shows the sanctioned aliasing escape hatch with weak handles,
// the machinery the SFI reference tables are built from.
func ExampleRc() {
	rc := linear.NewRc("shared config")
	weak := rc.Downgrade()

	if s, ok := weak.Upgrade(); ok {
		fmt.Println("upgraded:", s.Get())
		_ = s.Drop()
	}
	_ = rc.Drop() // last strong handle: the value dies
	_, ok := weak.Upgrade()
	fmt.Println("upgrade after drop:", ok)
	// Output:
	// upgraded: shared config
	// upgrade after drop: false
}
