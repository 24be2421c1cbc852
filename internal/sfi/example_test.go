package sfi_test

import (
	"errors"
	"fmt"

	"repro/internal/linear"
	"repro/internal/sfi"
)

type kvStore struct {
	data map[string]string
}

// Example reproduces the paper's §3 listing: create a protection domain,
// wrap an object in a remote reference, invoke it, and observe fail-closed
// behaviour after revocation.
func Example() {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("kv")
	rref, _ := sfi.Export(d, &kvStore{data: map[string]string{"k": "v"}})

	val, err := sfi.CallResult(rref, "get", func(s *kvStore) (string, error) {
		return s.data["k"], nil
	})
	if err != nil {
		fmt.Println("get() failed")
	} else {
		fmt.Println("Result:", val)
	}

	d.Revoke(rref.Slot())
	err = rref.Call("get", func(*kvStore) error { return nil })
	fmt.Println("after revoke:", errors.Is(err, sfi.ErrRevoked))
	// Output:
	// Result: v
	// after revoke: true
}

// ExampleCallMove shows the zero-copy ownership transfer across a
// protection boundary: the sender's handle dies, no bytes are copied.
func ExampleCallMove() {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("stage")
	rref, _ := sfi.Export(d, &kvStore{})

	payload := linear.New([]byte("packet payload"))
	sender := payload
	out, _ := sfi.CallMove(rref, "process", payload,
		func(_ *kvStore, batch linear.Owned[[]byte]) (linear.Owned[[]byte], error) {
			return batch, nil
		})
	_, err := sender.Borrow()
	fmt.Println("sender lost access:", errors.Is(err, linear.ErrMoved))
	fmt.Println("receiver-side handle live:", out.Valid())
	// Output:
	// sender lost access: true
	// receiver-side handle live: true
}

// ExampleManager_Recover walks the §3 fault-recovery protocol: a panic is
// contained at the domain boundary, the reference table is cleared, and
// recovery transparently re-binds outstanding rrefs.
func ExampleManager_Recover() {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("flaky")
	rref, _ := sfi.Export(d, &kvStore{data: map[string]string{"state": "dirty"}})
	slot := rref.Slot()
	d.SetRecovery(func(d *sfi.Domain) error {
		return sfi.ExportAt(d, slot, &kvStore{data: map[string]string{"state": "clean"}})
	})

	err := rref.Call("crash", func(*kvStore) error { panic("bounds violation") })
	fmt.Println("fault contained:", errors.Is(err, sfi.ErrDomainFailed))

	_ = mgr.Recover(d)
	state, _ := sfi.CallResult(rref, "get", func(s *kvStore) (string, error) {
		return s.data["state"], nil
	})
	fmt.Println("after recovery:", state)
	// Output:
	// fault contained: true
	// after recovery: clean
}
