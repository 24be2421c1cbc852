package domain

import (
	"errors"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/linear"
	"repro/internal/sfi"
)

// faultyState panics in every Checkpoint and fails every Restore.
type faultyState struct{ restoreErr error }

func (faultyState) Checkpoint(*checkpoint.Engine) (any, error) { panic("capture blew up") }
func (s faultyState) Restore(any) error                        { return s.restoreErr }

// TestFaultErrorText pins the message and the errors.Is chain of each
// fault the domain's entry points build. The errors are typed and format
// only when read; their text is the fmt.Errorf text they replaced, byte
// for byte. A stage panic is a handler whose stage, called through an
// RRef into its own sfi domain, panics: sfi catches it at that domain's
// entry point and the handler returns the error (netbricks'
// TestStagePanicErrorText pins the isolated pipeline's wrapping of it).
func TestFaultErrorText(t *testing.T) {
	errHandler := errors.New("handler said no")
	errRestore := errors.New("restore said no")
	stage := sfi.NewManager().NewDomain("stage-0-parse")
	rref, err := sfi.Export(stage, 7)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(h Handler[int]) func(*Domain[int]) error {
		return func(d *Domain[int]) error {
			d.handler = h
			return d.guard(linear.New(1))
		}
	}
	cases := []struct {
		name  string
		fault func(*Domain[int]) error
		want  string
		is    []error
		isNot []error
	}{
		{
			name: "stage panic",
			fault: invoke(func(linear.Owned[int]) error {
				return rref.Call("process", func(int) error { panic("boom") })
			}),
			want:  "domain worker-0: domain 1 (stage-0-parse) panicked in process: boom: sfi: domain failed during invocation",
			is:    []error{sfi.ErrDomainFailed},
			isNot: []error{ErrCrashed},
		},
		{
			name:  "handler panic",
			fault: invoke(func(linear.Owned[int]) error { panic("boom") }),
			want:  "domain worker-0: panic: boom: domain: handler crashed",
			is:    []error{ErrCrashed},
		},
		{
			name:  "handler error",
			fault: invoke(func(linear.Owned[int]) error { return errHandler }),
			want:  "domain worker-0: handler said no",
			is:    []error{errHandler},
			isNot: []error{ErrCrashed},
		},
		{
			name: "checkpoint panic",
			fault: func(d *Domain[int]) error {
				d.ck = &ckptState{state: faultyState{}}
				return d.takeCheckpoint(d.epoch.Load())
			},
			want: "domain worker-0: checkpoint panic: capture blew up: domain: handler crashed",
			is:   []error{ErrCrashed},
		},
		{
			name: "restore error",
			fault: func(d *Domain[int]) error {
				d.ck = &ckptState{state: faultyState{restoreErr: errRestore}}
				d.ck.last.Store(&ckptToken{token: "epoch"})
				return d.restoreLast()
			},
			want:  "domain worker-0: restore checkpoint: restore said no",
			is:    []error{errRestore},
			isNot: []error{ErrCrashed},
		},
	}
	sup, _ := fakeSupervisor(Policy{})
	defer sup.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.fault(&Domain[int]{name: "worker-0", sup: sup})
			if err == nil {
				t.Fatal("no fault")
			}
			if got := err.Error(); got != c.want {
				t.Errorf("Error() = %q\nwant      %q", got, c.want)
			}
			for _, target := range c.is {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(err, %q) = false", target)
				}
			}
			for _, target := range c.isNot {
				if errors.Is(err, target) {
					t.Errorf("errors.Is(err, %q) = true", target)
				}
			}
		})
	}
}

// failingState's every capture fails.
type failingState struct{ faultyState }

func (failingState) Checkpoint(*checkpoint.Engine) (any, error) {
	return nil, errors.New("capture said no")
}

// TestSeedFailureFailsSpawn: a state whose first capture, Spawn's seed,
// errors or panics is a Spawn error naming the domain, and no domain
// joins the supervisor.
func TestSeedFailureFailsSpawn(t *testing.T) {
	sup, _ := fakeSupervisor(ckptPolicy(time.Hour))
	defer sup.Close()
	for _, c := range []struct {
		state Stateful
		want  string
	}{
		{failingState{}, "domain seedless: seed checkpoint: capture said no"},
		{faultyState{}, "domain seedless: seed checkpoint panic: capture blew up"},
	} {
		d, err := Spawn(sup, Config[int]{
			Name:    "seedless",
			State:   c.state,
			Handler: func(linear.Owned[int]) error { return nil },
		})
		if d != nil || err == nil || err.Error() != c.want {
			t.Errorf("Spawn over %T = (%v, %v), want the error %q", c.state, d, err, c.want)
		}
	}
	if n := len(sup.Snapshots()); n != 0 {
		t.Fatalf("%d domains joined the supervisor", n)
	}
}
