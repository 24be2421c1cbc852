// Package extension realizes the paper's §6 vision of verified kernel
// extensions: untrusted packet-processing programs, written in minirust,
// are statically verified before loading and run inside a protection
// domain afterwards — all three of the paper's pillars composed.
//
//   - Analysis (§4): the extension is pushed through the full verifier
//     with the packet's header fields labeled secret, proving it cannot
//     exfiltrate traffic data through its output channel, and through
//     the borrow checker, proving ownership discipline.
//   - Isolation (§3): the loaded extension is exported into its own
//     sfi.Domain; a runtime fault (assertion failure, division by zero,
//     bounds error — the kernel-crash class) is contained at the domain
//     boundary and the extension is re-initialized by domain recovery.
//   - The static verification is what makes the runtime cheap: no taint
//     monitor runs in the packet path.
//
// An extension is a program defining
//
//	fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool
//
// returning true to keep the packet. Load appends a driver main that
// binds secret-labeled header fields and calls filter, so the IFC
// analysis judges the extension against exactly the deployment
// environment.
package extension

import (
	"errors"
	"fmt"

	"repro/internal/minirust"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/verifier"
)

// EntryPoint is the function every extension must define.
const EntryPoint = "filter"

// Errors reported by loading.
var (
	// ErrNoFilter reports a program without the filter entry point.
	ErrNoFilter = errors.New("extension: no filter function")
	// ErrBadSignature reports a filter with the wrong signature.
	ErrBadSignature = errors.New("extension: filter has wrong signature")
	// ErrRejected reports a program that failed verification; inspect
	// the wrapped report.
	ErrRejected = errors.New("extension: verification rejected")
	// ErrHasMain reports a program that supplies its own main (the
	// driver is synthesized; a user main would bypass the secret-input
	// binding).
	ErrHasMain = errors.New("extension: programs must not define main")
)

// driverMain is appended to every extension so the analysis sees the
// deployment environment: header fields are secret inputs; the verdict
// (and nothing else) flows back to the kernel.
const driverMain = `
fn main() {
    #[label(secret)] let src = 0;
    #[label(secret)] let dst = 0;
    #[label(secret)] let sport = 0;
    #[label(secret)] let dport = 0;
    #[label(secret)] let proto = 0;
    let keep = filter(src, dst, sport, dport, proto);
    assert_label_max(keep, "secret");
}
`

// Extension is a loaded, verified packet filter.
type Extension struct {
	Name   string
	interp *minirust.Interp

	// Stats.
	Evaluated uint64
	Kept      uint64
}

// Load verifies and instantiates an extension from source. The returned
// extension is ready to filter; rejected programs return ErrRejected
// with the report attached for diagnostics.
func Load(name, src string) (*Extension, *verifier.Report, error) {
	// Structural pre-checks need a parse; reuse the verifier's parse via
	// a cheap standalone pass for precise errors.
	prog, err := minirust.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("extension %s: %w", name, err)
	}
	if _, has := prog.Funcs["main"]; has {
		return nil, nil, fmt.Errorf("extension %s: %w", name, ErrHasMain)
	}
	f, ok := prog.Funcs[EntryPoint]
	if !ok {
		return nil, nil, fmt.Errorf("extension %s: %w", name, ErrNoFilter)
	}
	if err := checkSignature(f); err != nil {
		return nil, nil, fmt.Errorf("extension %s: %w", name, err)
	}
	full := src + driverMain
	rep := verifier.Verify(full)
	if !rep.OK() {
		return nil, rep, fmt.Errorf("extension %s: %w:\n%s", name, ErrRejected, rep)
	}
	in := minirust.NewInterp(rep.Checked, minirust.WithMaxSteps(100_000))
	return &Extension{Name: name, interp: in}, rep, nil
}

func checkSignature(f *minirust.FuncDef) error {
	if len(f.Params) != 5 {
		return fmt.Errorf("%w: want 5 i64 parameters, have %d", ErrBadSignature, len(f.Params))
	}
	for _, p := range f.Params {
		if !p.Type.Equal(minirust.TypeI64) {
			return fmt.Errorf("%w: parameter %s is %s, want i64", ErrBadSignature, p.Name, p.Type)
		}
	}
	if !f.Ret.Equal(minirust.TypeBool) {
		return fmt.Errorf("%w: returns %s, want bool", ErrBadSignature, f.Ret)
	}
	return nil
}

// Filter evaluates the extension on a 5-tuple. A runtime error in the
// extension (assertion failure, division by zero, exhausted step budget)
// is returned as-is — hosts running the extension inside a protection
// domain convert it into a domain fault (see Operator).
func (e *Extension) Filter(t packet.FiveTuple) (bool, error) {
	e.interp.ResetSteps()
	args := []minirust.Value{
		minirust.NewInt(int64(t.SrcIP), ""),
		minirust.NewInt(int64(t.DstIP), ""),
		minirust.NewInt(int64(t.SrcPort), ""),
		minirust.NewInt(int64(t.DstPort), ""),
		minirust.NewInt(int64(t.Proto), ""),
	}
	v, err := e.interp.CallFunction(EntryPoint, args)
	if err != nil {
		return false, err
	}
	e.Evaluated++
	if v.Kind != minirust.VBool {
		return false, fmt.Errorf("extension %s: filter returned non-bool", e.Name)
	}
	if v.B {
		e.Kept++
	}
	return v.B, nil
}

// Operator adapts the extension into a NetBricks stage. A runtime fault
// inside the extension panics, so that — exported into an sfi.Domain —
// the fault is contained and recovered exactly like any §3 domain fault.
type Operator struct {
	Ext *Extension
}

// Name implements netbricks.Operator.
func (o Operator) Name() string { return "ext:" + o.Ext.Name }

// ProcessBatch implements netbricks.Operator.
func (o Operator) ProcessBatch(b *netbricks.Batch) error {
	for i := 0; i < len(b.Pkts); {
		p := b.Pkts[i]
		if !p.Parsed() {
			if err := p.Parse(); err != nil {
				b.Drop(i)
				continue
			}
		}
		keep, err := o.Ext.Filter(p.Tuple())
		if err != nil {
			// The extension crashed: surface it as a panic so the SFI
			// boundary treats it as a domain fault.
			panic(fmt.Sprintf("extension %s crashed: %v", o.Ext.Name, err))
		}
		if !keep {
			b.Drop(i)
			continue
		}
		i++
	}
	return nil
}

var _ netbricks.Operator = Operator{}
