// Quickstart: the paper's §3 listing in twenty lines — create a
// protection domain, export an object into it as a remote reference,
// invoke it, revoke it, and watch the call fail closed.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/sfi"
)

// counter is the object that will live inside the protection domain.
type counter struct{ n int }

func main() {
	log.SetFlags(0)

	// Inside the domain manager: create a PD and an object inside it.
	mgr := sfi.NewManager()
	d := mgr.NewDomain("svc")
	rref, err := sfi.Export(d, &counter{})
	if err != nil {
		log.Fatal(err)
	}

	// Invoke the rref from outside the PD. This is
	// the paper's `match rref.method1() { Ok(ret) => ..., Err(_) => ... }`.
	for i := 0; i < 3; i++ {
		ret, err := sfi.CallResult(rref, "incr", func(c *counter) (int, error) {
			c.n++
			return c.n, nil
		})
		if err != nil {
			fmt.Println("incr() failed:", err)
			continue
		}
		fmt.Println("Result:", ret)
	}

	// Revoke the reference: the owner removes the proxy from its
	// reference table, and every outstanding rref fails closed.
	d.Revoke(rref.Slot())
	err = rref.Call("incr", func(c *counter) error { c.n++; return nil })
	switch {
	case errors.Is(err, sfi.ErrRevoked):
		fmt.Println("after revocation: incr() failed with ErrRevoked (as designed)")
	case err == nil:
		log.Fatal("BUG: call succeeded after revocation")
	default:
		log.Fatalf("unexpected error: %v", err)
	}
}
