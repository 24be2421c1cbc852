package telemetry

import (
	"sync"
	"testing"
)

// TestTxnBatchedRegistration: series staged on a Txn are invisible until
// Commit, then all land at once; a nil registry's Txn discards.
func TestTxnBatchedRegistration(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter
	a.Add(1)
	b.Add(2)
	txn := reg.Begin()
	txn.RegisterCounter("txn_a_total", nil, &a)
	txn.RegisterCounter("txn_b_total", nil, &b)
	if len(reg.Snapshot()) != 0 {
		t.Fatal("staged series visible before Commit")
	}
	txn.Commit()
	snap := reg.Snapshot()
	if snap["txn_a_total"] != 1.0 || snap["txn_b_total"] != 2.0 {
		t.Fatalf("snapshot after Commit = %v", snap)
	}

	var nilReg *Registry
	nt := nilReg.Begin()
	var c Counter
	nt.RegisterCounter("discarded_total", nil, &c)
	nt.Commit() // must not panic
}

// TestTxnAtomicReregistration is the regression test for the mid-scrape
// reregistration race: a runner re-registering a group of series (as
// ShardedRunner.Run does per worker, and Supervisor.Spawn per domain)
// while /metrics or /metrics?format=json snapshots concurrently must never
// let a scrape observe the group half-replaced — some series from the
// new generation, some from the old. The writer flips a pair of series
// to a new generation via one Txn per flip; every snapshot must see the
// pair agree.
func TestTxnAtomicReregistration(t *testing.T) {
	reg := NewRegistry()
	const gens = 500

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for g := 1; g <= gens; g++ {
			g := float64(g)
			txn := reg.Begin()
			txn.RegisterCounterFunc("pair_a_total", nil, func() float64 { return g })
			txn.RegisterCounterFunc("pair_b_total", nil, func() float64 { return g })
			txn.Commit()
		}
	}()

	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap := reg.Snapshot()
				a, aok := snap["pair_a_total"].(float64)
				b, bok := snap["pair_b_total"].(float64)
				if aok != bok || (aok && a != b) {
					t.Errorf("torn snapshot: pair_a=%v (%v) pair_b=%v (%v)", a, aok, b, bok)
					return
				}
				if aok && a == gens {
					return
				}
			}
		}()
	}
	wg.Wait()
}
