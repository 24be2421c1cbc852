package extension

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dpdk"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/sfi"
	"repro/internal/verifier"
)

// goodFilter keeps TCP traffic to ports below 1024.
const goodFilter = `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    if proto == 6 {
        return dport < 1024;
    }
    return false;
}
`

// leakyFilter tries to exfiltrate header data to the terminal.
const leakyFilter = `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    println(src, dport);   // exfiltration attempt
    return true;
}
`

// crashyFilter divides by the source port: port 0 crashes it.
const crashyFilter = `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    let ratio = dport / sport;
    return ratio > 0;
}
`

// ownershipBugFilter misuses a vector after moving it.
const ownershipBugFilter = `
labels public < secret;
fn consume(v: Vec<i64>) -> i64 { return 0; }
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    let v = vec![src, dst];
    let a = consume(v);
    let b = consume(v);
    return a == b;
}
`

func tupleFor(dport uint16, proto uint8, sport uint16) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP: packet.Addr(1, 2, 3, 4), DstIP: packet.Addr(5, 6, 7, 8),
		SrcPort: sport, DstPort: dport, Proto: proto,
	}
}

func TestLoadAndFilter(t *testing.T) {
	ext, rep, err := Load("web-only", goodFilter)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("report: %s", rep)
	}
	cases := []struct {
		t    packet.FiveTuple
		keep bool
	}{
		{tupleFor(80, packet.ProtoTCP, 40000), true},
		{tupleFor(443, packet.ProtoTCP, 40000), true},
		{tupleFor(8080, packet.ProtoTCP, 40000), false},
		{tupleFor(80, packet.ProtoUDP, 40000), false},
	}
	for _, c := range cases {
		keep, err := ext.Filter(c.t)
		if err != nil {
			t.Fatalf("filter(%v): %v", c.t, err)
		}
		if keep != c.keep {
			t.Fatalf("filter(%v) = %v, want %v", c.t, keep, c.keep)
		}
	}
	if ext.Evaluated != 4 || ext.Kept != 2 {
		t.Fatalf("stats = %d/%d", ext.Evaluated, ext.Kept)
	}
}

func TestLeakyExtensionRejectedAtLoad(t *testing.T) {
	_, rep, err := Load("exfil", leakyFilter)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if rep == nil || rep.Stage != verifier.StageIFC {
		t.Fatalf("report = %v", rep)
	}
	if len(rep.Violations) == 0 || rep.Violations[0].Label != "secret" {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

func TestOwnershipBugRejectedAtLoad(t *testing.T) {
	_, rep, err := Load("double-use", ownershipBugFilter)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	if rep.Stage != verifier.StageBorrowCheck {
		t.Fatalf("stage = %s", rep.Stage)
	}
}

func TestStructuralChecks(t *testing.T) {
	if _, _, err := Load("x", `fn not_filter() { }`); !errors.Is(err, ErrNoFilter) {
		t.Fatalf("no filter: %v", err)
	}
	if _, _, err := Load("x", `fn filter(a: i64) -> bool { return true; }`); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("bad arity: %v", err)
	}
	if _, _, err := Load("x", `fn filter(a: i64, b: i64, c: i64, d: i64, e: bool) -> bool { return true; }`); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("bad param type: %v", err)
	}
	if _, _, err := Load("x", `fn filter(a: i64, b: i64, c: i64, d: i64, e: i64) -> i64 { return 0; }`); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("bad return: %v", err)
	}
	if _, _, err := Load("x", `
fn filter(a: i64, b: i64, c: i64, d: i64, e: i64) -> bool { return true; }
fn main() { }
`); !errors.Is(err, ErrHasMain) {
		t.Fatalf("own main: %v", err)
	}
	if _, _, err := Load("x", `fn filter(`); err == nil {
		t.Fatal("parse error swallowed")
	}
}

func TestCrashyExtensionReturnsRuntimeError(t *testing.T) {
	ext, _, err := Load("crashy", crashyFilter)
	if err != nil {
		t.Fatal(err) // statically clean: the crash is value-dependent
	}
	if keep, err := ext.Filter(tupleFor(80, packet.ProtoTCP, 8)); err != nil || !keep {
		t.Fatalf("normal packet: %v %v", keep, err)
	}
	if _, err := ext.Filter(tupleFor(80, packet.ProtoTCP, 0)); err == nil {
		t.Fatal("division by zero not surfaced")
	}
}

func TestOperatorFiltersBatch(t *testing.T) {
	ext, _, err := Load("web-only", goodFilter)
	if err != nil {
		t.Fatal(err)
	}
	spec := dpdk.DefaultSpec()
	spec.Tuple.Proto = packet.ProtoTCP
	spec.Tuple.DstPort = 80
	frameKeep, _ := packet.Build(nil, spec)
	spec.Tuple.DstPort = 9999
	frameDrop, _ := packet.Build(nil, spec)
	b := &netbricks.Batch{Pkts: []*packet.Packet{
		{Data: frameKeep}, {Data: frameDrop}, {Data: []byte{1, 2}},
	}}
	op := Operator{Ext: ext}
	if err := op.ProcessBatch(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Pkts) != 1 || len(b.Dropped) != 2 {
		t.Fatalf("kept %d dropped %d", len(b.Pkts), len(b.Dropped))
	}
	if op.Name() != "ext:web-only" {
		t.Fatalf("Name = %q", op.Name())
	}
}

func TestCrashContainedByDomainAndRecovered(t *testing.T) {
	// The §6 story end to end: the verified-but-crashy extension faults
	// on a poisoned packet; the protection domain contains it and
	// recovery reloads the extension.
	ext, _, err := Load("crashy", crashyFilter)
	if err != nil {
		t.Fatal(err)
	}
	mgr := sfi.NewManager()
	d := mgr.NewDomain("extension")
	rref, err := sfi.Export[netbricks.Operator](d, Operator{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	slot := rref.Slot()
	d.SetRecovery(func(d *sfi.Domain) error {
		fresh, _, err := Load("crashy", crashyFilter)
		if err != nil {
			return err
		}
		return sfi.ExportAt[netbricks.Operator](d, slot, Operator{Ext: fresh})
	})

	mkBatch := func(sport uint16) *netbricks.Batch {
		spec := dpdk.DefaultSpec()
		spec.Tuple.Proto = packet.ProtoTCP
		spec.Tuple.SrcPort = sport
		spec.Tuple.DstPort = 80
		frame, _ := packet.Build(nil, spec)
		return &netbricks.Batch{Pkts: []*packet.Packet{{Data: frame}}}
	}

	// Normal packet: fine.
	if err := rref.Call("process", func(op netbricks.Operator) error {
		return op.ProcessBatch(mkBatch(40000))
	}); err != nil {
		t.Fatal(err)
	}
	// Poisoned packet (sport 0): the extension crashes; the domain
	// contains it.
	err = rref.Call("process", func(op netbricks.Operator) error {
		return op.ProcessBatch(mkBatch(0))
	})
	if !errors.Is(err, sfi.ErrDomainFailed) {
		t.Fatalf("err = %v, want ErrDomainFailed", err)
	}
	if !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("err = %v, want crash detail", err)
	}
	// Recover and keep filtering.
	if err := mgr.Recover(d); err != nil {
		t.Fatal(err)
	}
	if err := rref.Call("process", func(op netbricks.Operator) error {
		return op.ProcessBatch(mkBatch(40000))
	}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestManyInvocationsResetStepBudget(t *testing.T) {
	ext, _, err := Load("web-only", goodFilter)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		if _, err := ext.Filter(tupleFor(80, packet.ProtoTCP, 1)); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func BenchmarkExtensionFilter(b *testing.B) {
	ext, _, err := Load("web-only", goodFilter)
	if err != nil {
		b.Fatal(err)
	}
	t := tupleFor(80, packet.ProtoTCP, 40000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Filter(t); err != nil {
			b.Fatal(err)
		}
	}
}
