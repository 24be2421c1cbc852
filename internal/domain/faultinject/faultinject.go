// Package faultinject is the chaos harness for the supervised
// protection-domain runtime: deterministic, probabilistic injection of
// the two fault classes the supervisor must absorb — handler panics and
// handler stalls (hangs).
//
// An Injector is seeded, so a chaos run is reproducible: the same seed
// injects the same fault sequence. All methods are safe for concurrent
// use; per-fault accounting is atomic so tests can assert exact coverage
// ("the run really injected ≥ N faults").
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Stats counts injected faults.
type Stats struct {
	Panics atomic.Uint64
	Stalls atomic.Uint64
	Calls  atomic.Uint64
}

// Injector decides, per call, whether to inject a fault.
type Injector struct {
	// PanicProb is the probability [0,1] that Point panics.
	PanicProb float64
	// StallProb is the probability [0,1] that Point sleeps StallFor —
	// long enough, relative to the supervisor's HangAfter, to register
	// as a hang.
	StallProb float64
	// StallFor is the stall duration (default 10ms).
	StallFor time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	// Stats is exported for assertions.
	Stats Stats
}

// New creates an injector with a deterministic seed. Probabilities start
// at zero; set the fields before use (or toggle them mid-run with Set —
// phased chaos scenarios flip injection on and off while traffic flows).
func New(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), StallFor: 10 * time.Millisecond}
}

// Set replaces both probabilities under the injector's lock, so a test
// driver can retarget a live injector while handler goroutines are
// inside Point.
func (i *Injector) Set(panicProb, stallProb float64) {
	i.mu.Lock()
	i.PanicProb = panicProb
	i.StallProb = stallProb
	i.mu.Unlock()
}

// roll draws one uniform sample and reads the probabilities under the
// same lock, keeping Point race-free against a concurrent Set.
func (i *Injector) roll() (r, panicProb, stallProb float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64(), i.PanicProb, i.StallProb
}

// Point is the injection site: call it from a handler (or operator) hot
// path. It panics with probability PanicProb, stalls with probability
// StallProb, and otherwise returns immediately.
func (i *Injector) Point(label string) {
	i.Stats.Calls.Add(1)
	r, panicProb, stallProb := i.roll()
	if r < panicProb {
		i.Stats.Panics.Add(1)
		panic(fmt.Sprintf("faultinject: %s: injected panic (roll %.4f)", label, r))
	}
	if r < panicProb+stallProb {
		i.Stats.Stalls.Add(1)
		time.Sleep(i.StallFor)
	}
}
