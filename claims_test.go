// Paper-claims traceability suite: one integration test per load-bearing
// claim in the paper, each headed by the sentence it verifies. These run
// across package boundaries, complementing the per-package unit tests;
// together with bench_test.go they are the repository's reproduction
// certificate. The quantitative claims (Figure 2, the §3 scalars, Figure 3)
// time the steps bench_test.go benchmarks and log the paper's tables:
//
//	go test -run TestClaim -v .
package repro

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dpdk"
	"repro/internal/extension"
	"repro/internal/firewall"
	"repro/internal/ifc"
	"repro/internal/linear"
	"repro/internal/minirust"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/securestore"
	"repro/internal/sfi"
	"repro/internal/verifier"
)

// paperGHz is the clock of the paper's evaluation machine (Xeon E5530).
// The tables below convert measured ns to cycles at it: they compare with
// the paper in shape, not in absolute value, on any host.
const paperGHz = 2.40

// minNsPerOp runs step iters times per round, rounds timed rounds after
// one untimed warm-up round, and returns the fastest round's ns per step:
// preemption, GC and cold caches only ever inflate a round.
func minNsPerOp(t *testing.T, rounds, iters int, step func() error) float64 {
	t.Helper()
	best := math.Inf(1)
	for r := -1; r < rounds; r++ {
		if ns := roundNs(t, iters, step); r >= 0 {
			best = min(best, ns)
		}
	}
	return best
}

// roundNs runs step iters times and returns the ns per step.
func roundNs(t *testing.T, iters int, step func() error) float64 {
	t.Helper()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// invocationCycles is the per-invocation overhead Figure 2 plots: the
// isolated pipeline's cost over the direct one's, per stage, in cycles.
// It is minNsPerOp of each pipeline with their rounds alternated, so load
// that inflates a stretch of rounds inflates both sides, not one.
func invocationCycles(t *testing.T, stages, batchSize int) (direct, isolated, perCall float64) {
	t.Helper()
	d, iso := nullPipeline(t, stages, batchSize, false), nullPipeline(t, stages, batchSize, true)
	direct, isolated = math.Inf(1), math.Inf(1)
	for r := -1; r < 5; r++ {
		dn, in := roundNs(t, 500, d), roundNs(t, 500, iso)
		if r >= 0 {
			direct, isolated = min(direct, dn), min(isolated, in)
		}
	}
	direct, isolated = direct*paperGHz, isolated*paperGHz
	return direct, isolated, (isolated - direct) / float64(stages)
}

// §3: "The Rust compiler ensures that, once a pointer has been passed
// across isolation boundaries, it can no longer be accessed by the
// sender."
func TestClaim_S3_SenderLosesAccessAcrossBoundary(t *testing.T) {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("stage")
	rref, err := sfi.Export(d, &struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	batch := linear.New([]byte("line-rate payload"))
	sender := batch
	if _, err := sfi.CallMove(rref, "p", batch,
		func(_ *struct{}, a linear.Owned[[]byte]) (linear.Owned[[]byte], error) {
			return a, nil
		}); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Borrow(); !errors.Is(err, linear.ErrMoved) {
		t.Fatalf("sender retained access: %v", err)
	}
}

// §3: "Our SFI implementation introduces the overhead of indirect
// invocation via the proxy … and has zero runtime overhead during normal
// execution" — i.e. no per-byte or per-dereference cost, only a
// per-invocation constant. We verify the structural half: crossing the
// boundary moves zero payload bytes.
func TestClaim_S3_ZeroCopyCrossing(t *testing.T) {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("stage")
	rref, err := sfi.Export[netbricks.Operator](d, netbricks.NullFilter{})
	if err != nil {
		t.Fatal(err)
	}
	port := dpdk.NewPort(dpdk.Config{PoolSize: 16})
	pkts := make([]*packet.Packet, 4)
	n := port.RxBurst(pkts)
	batch := &netbricks.Batch{Pkts: pkts[:n]}
	before := make([]*packet.Packet, n)
	copy(before, batch.Pkts)

	owned := linear.New(batch)
	out, err := sfi.CallMove(rref, "p", owned,
		func(op netbricks.Operator, a linear.Owned[*netbricks.Batch]) (linear.Owned[*netbricks.Batch], error) {
			_ = a.With(func(b *netbricks.Batch) {
				for i, p := range b.Pkts {
					if p != before[i] {
						t.Errorf("packet %d copied crossing the boundary", i)
					}
				}
			})
			return a, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	final, err := out.Into()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range final.Pkts {
		if p != before[i] {
			t.Fatalf("packet %d copied on return", i)
		}
	}
	port.FreeQueue(0, final.Pkts)
}

// §3: "By clearing the reference table one can automatically deallocate
// all memory and resources owned by the domain" + "future attempts to
// invoke the rref will fail to upgrade the weak pointer and will return
// an error."
func TestClaim_S3_TeardownFailsClosed(t *testing.T) {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("svc")
	var refs []*sfi.RRef[*bytes.Buffer]
	for i := 0; i < 8; i++ {
		r, err := sfi.Export(d, bytes.NewBufferString("x"))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, r)
	}
	_ = refs[0].Call("boom", func(*bytes.Buffer) error { panic("fault") })
	if d.TableSize() != 0 {
		t.Fatalf("table not cleared: %d", d.TableSize())
	}
	for i, r := range refs {
		if err := r.Call("use", func(*bytes.Buffer) error { return nil }); err == nil {
			t.Fatalf("rref %d usable after teardown", i)
		}
	}
}

// §3: "The recovery process can re-populate the reference table, thus
// making the failure transparent to clients of the domain."
func TestClaim_S3_RecoveryTransparent(t *testing.T) {
	mgr := sfi.NewManager()
	d := mgr.NewDomain("svc")
	rref, err := sfi.Export(d, bytes.NewBufferString("gen-1"))
	if err != nil {
		t.Fatal(err)
	}
	slot := rref.Slot()
	d.SetRecovery(func(d *sfi.Domain) error {
		return sfi.ExportAt(d, slot, bytes.NewBufferString("gen-2"))
	})
	_ = rref.Call("boom", func(*bytes.Buffer) error { panic("fault") })
	if err := mgr.Recover(d); err != nil {
		t.Fatal(err)
	}
	// The *same client-held rref* works again without re-acquisition.
	got, err := sfi.CallResult(rref, "read", func(b *bytes.Buffer) (string, error) {
		return b.String(), nil
	})
	if err != nil {
		t.Fatalf("client had to do something special: %v", err)
	}
	if got != "gen-2" {
		t.Fatalf("recovered state = %q", got)
	}
}

// §3: "NetBricks takes advantage of linear types to ensure that only one
// pipeline stage can access the batch at any time."
func TestClaim_S3_SingleStageAccess(t *testing.T) {
	pl := netbricks.NewPipeline(netbricks.NullFilter{}, netbricks.NullFilter{})
	b := linear.New(&netbricks.Batch{})
	prev := b
	out, err := pl.Process(b)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Valid() {
		t.Fatal("producer still holds the batch while the pipeline owns it")
	}
	if !out.Valid() {
		t.Fatal("pipeline did not return ownership")
	}
}

// §3, Figure 2: a remote invocation costs 90 cycles at one packet per
// batch and 122 at 256, and above 32 packets per batch that is under 1 %
// of what the Maglev NF spends on the batch. The shape is the claim: the
// overhead is per batch, Maglev's cost is per packet.
func TestClaim_S3_Figure2InvocationOverhead(t *testing.T) {
	t.Logf("Figure 2: remote-invocation overhead vs. Maglev batch cost, %d null filters (cycles at %.2f GHz)", figure2Stages, paperGHz)
	t.Logf("%10s %12s %12s %10s %12s %8s", "pkts/batch", "direct cyc", "isolated cyc", "ovh/call", "maglev cyc", "ovh %")
	pct := map[int]float64{}
	maglevCyc := map[int]float64{}
	for _, bs := range paperBatchSizes {
		direct, isolated, perCall := invocationCycles(t, figure2Stages, bs)
		maglevCyc[bs] = minNsPerOp(t, 5, 500, maglevBatch(t, bs)) * paperGHz
		pct[bs] = perCall / maglevCyc[bs] * 100
		t.Logf("%10d %12.0f %12.0f %10.0f %12.0f %7.2f%%", bs, direct, isolated, perCall, maglevCyc[bs], pct[bs])
	}
	t.Log("(paper: 90 cycles at 1 pkt/batch -> 122 at 256; <1% of Maglev above 32 pkts/batch)")
	if pct[1] < pct[64] {
		t.Fatalf("overhead did not fall relative to Maglev as the batch grew: %.2f%% at 1, %.2f%% at 64", pct[1], pct[64])
	}
	if maglevCyc[64] <= maglevCyc[1] {
		t.Fatalf("Maglev's per-batch cost did not grow with the batch: %.0f cycles at 1, %.0f at 64", maglevCyc[1], maglevCyc[64])
	}
}

// §3: "We found this overhead to be independent of the pipeline length."
func TestClaim_S3_OverheadIndependentOfPipelineLength(t *testing.T) {
	t.Log("per-invocation overhead across pipeline lengths, 32 pkts/batch")
	t.Logf("%8s %10s", "stages", "ovh/call")
	for _, n := range []int{1, 2, 5, 10} {
		_, _, perCall := invocationCycles(t, n, 32)
		t.Logf("%8d %10.0f", n, perCall)
		if perCall < 0 {
			t.Fatalf("%d stages: isolated pipeline cheaper than direct (%.0f cycles per call)", n, perCall)
		}
	}
}

// §3: recovering a failed domain — catch the panic, clear its reference
// table, re-create it from clean state — takes 4389 cycles.
func TestClaim_S3_RecoveryCost(t *testing.T) {
	cyc := minNsPerOp(t, 5, 500, domainRecovery(t)) * paperGHz
	t.Logf("recovery: catch panic + clear reference table + re-create domain = %.0f cycles (paper: 4389)", cyc)
	if cyc < 100 {
		t.Fatalf("implausibly cheap recovery: %.0f cycles", cyc)
	}
}

// §4: "line 17 is rejected by the compiler, as it attempts to access the
// nonsec variable, whose ownership was transferred to the append method
// in line 14."
func TestClaim_S4_AliasExploitRejectedByOwnership(t *testing.T) {
	rep := verifier.Verify(minirust.PaperBufferProgram(false, true))
	if rep.Stage != verifier.StageBorrowCheck {
		t.Fatalf("stopped at %s, want borrow check", rep.Stage)
	}
	var be *minirust.BorrowError
	if !errors.As(rep.Err, &be) || !strings.Contains(be.Msg, "nonsec") {
		t.Fatalf("err = %v", rep.Err)
	}
}

// §4: "in line 15, the content of the buffer is tainted as secret, which
// triggers an error in line 16."
func TestClaim_S4_DirectLeakCaughtStatically(t *testing.T) {
	rep := verifier.Verify(minirust.PaperBufferProgram(true, false))
	if rep.Stage != verifier.StageIFC || len(rep.Violations) != 1 {
		t.Fatalf("report: %s", rep)
	}
	v := rep.Violations[0]
	if v.Label != "secret" || v.Bound != "public" || v.Sink != "println" {
		t.Fatalf("violation = %+v", v)
	}
}

// §4: "An auxiliary program counter variable is introduced to track the
// flow of information via branching on labeled variables."
func TestClaim_S4_ImplicitFlowsTracked(t *testing.T) {
	rep := verifier.Verify(`
fn main() {
    #[label(secret)]
    let bit = 1;
    let mut mirror = 0;
    if bit == 1 { mirror = 1; } else { mirror = 0; }
    println(mirror);
}
`)
	if rep.OK() {
		t.Fatal("pc-mediated flow missed")
	}
}

// §4: "As a sanity check, we seeded a bug into checking of security
// access in the implementation. SMACK discovered the injected bug."
func TestClaim_S4_SeededBugsDiscovered(t *testing.T) {
	for _, v := range securestore.Variants {
		rep := securestore.VerifyVariant(v)
		if v.Buggy() == rep.OK() {
			t.Fatalf("variant %s: buggy=%v but verified=%v", v, v.Buggy(), rep.OK())
		}
	}
}

// §4: "the effect of every function on security labels is confined to its
// input arguments and can be summarized by analyzing the code of the
// function in isolation from the rest of the program."
func TestClaim_S4_CompositionalSummaries(t *testing.T) {
	prog, err := minirust.Parse(`
fn helper(x: i64) -> i64 { return x + 1; }
fn main() {
    let a = helper(1);
    let b = helper(1);
    let c = helper(1);
    println(a + b + c);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	checked, err := minirust.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := minirust.BorrowCheck(checked); err != nil {
		t.Fatal(err)
	}
	res, err := ifc.Analyze(checked, ifc.Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.SummaryHits != 2 {
		t.Fatalf("hits = %d: helper body not reused", res.SummaryHits)
	}
}

// §5: "Multiple leaves of the trie can point to the same rule …
// potentially leading to redundant copies of the rule" (Figure 3b) vs.
// the library "checkpoints objects with internal aliases correctly and
// efficiently."
func TestClaim_S5_Figure3CopyCounts(t *testing.T) {
	const rules, share = 1000, 3
	t.Logf("Figure 3: checkpointing a %d-rule firewall DB, each rule on %d trie leaves (cycles at %.2f GHz)", rules, share, paperGHz)
	t.Logf("%12s %8s %8s %10s %12s %10s", "mode", "copies", "handles", "probes", "cycles", "sharing")
	for _, mode := range figure3Modes {
		var snap *checkpoint.Snapshot
		cyc := minNsPerOp(t, 3, 2, figure3Checkpoint(t, rules, share, mode, &snap)) * paperGHz
		st := snap.Stats()
		restored, err := firewall.RestoreDB(snap)
		if err != nil {
			t.Fatal(err)
		}
		distinct, handles := restored.RuleCount()
		// Naive copies once per handle (Figure 3b); the other two arms once
		// per rule, each copy holding one strong handle per leaf naming it.
		copies, perRule, status := rules, int64(share), "ok"
		if mode == checkpoint.Naive {
			copies, perRule, status = rules*share, 1, "duplicated"
		}
		t.Logf("%12s %8d %8d %10d %12.0f %10s", mode, st.RcFirst, handles, st.SetProbes, cyc, status)
		if st.RcFirst != copies {
			t.Fatalf("%s copies = %d, want %d", mode, st.RcFirst, copies)
		}
		if probed := st.SetProbes > 0; probed != (mode == checkpoint.VisitedSet) {
			t.Fatalf("%s made %d visited-set probes; only the visited-set arm probes a table", mode, st.SetProbes)
		}
		if distinct != copies || handles != rules*share {
			t.Fatalf("%s restored %d rules under %d handles, want %d under %d", mode, distinct, handles, copies, rules*share)
		}
		restored.Rules.Walk(func(_ packet.IPv4, _ int, v *[]firewall.SharedRule) bool {
			for _, sr := range *v {
				if n := sr.StrongCount(); n != perRule {
					t.Fatalf("%s: restored rule %d has %d strong handles, want %d", mode, sr.Get().ID, n, perRule)
				}
			}
			return true
		})
	}
	t.Log("(paper: the Rc flag copies each shared rule once; naive traversal duplicates it;")
	t.Log(" conventional languages pay a visited-set probe per pointer to avoid that)")
}

// §5: "Aliasing, when present, is explicit in object's type signature" —
// so the restored graph is not merely structurally shared but
// behaviourally aliased.
func TestClaim_S5_RestoredAliasesBehave(t *testing.T) {
	db := firewall.NewDB(firewall.Deny)
	h, err := db.AddRule(packet.Addr(10, 0, 0, 0), 8, firewall.Rule{ID: 1, Action: firewall.Allow})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachRule(packet.Addr(20, 0, 0, 0), 8, h); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Checkpoint(checkpoint.NewEngine(checkpoint.RcAware))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := firewall.RestoreDB(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the rule through the 10/8 leaf; the 20/8 leaf must see it.
	var flipped bool
	restored.Rules.Walk(func(_ packet.IPv4, _ int, v *[]firewall.SharedRule) bool {
		for _, sr := range *v {
			if !flipped && sr.Get().ID == 1 {
				sr.Set(firewall.Rule{ID: 1, Action: firewall.Deny})
				flipped = true
			}
		}
		return true
	})
	act, _ := restored.Match(packet.FiveTuple{DstIP: packet.Addr(20, 1, 1, 1), Proto: packet.ProtoTCP})
	if act != firewall.Deny {
		t.Fatal("restored aliases not behaviourally shared")
	}
}

// §6: "This has numerous applications in systems, ranging from verified
// kernel extensions …" — composed from all three pillars.
func TestClaim_S6_VerifiedKernelExtension(t *testing.T) {
	// An exfiltrating extension cannot be loaded.
	_, _, err := extension.Load("spy", `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    println(dst);
    return true;
}
`)
	if !errors.Is(err, extension.ErrRejected) {
		t.Fatalf("spy loaded: %v", err)
	}
	// A verified one runs, and its runtime crash is contained.
	ext, _, err := extension.Load("ok", `
labels public < secret;
fn filter(src: i64, dst: i64, sport: i64, dport: i64, proto: i64) -> bool {
    return dport / sport >= 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	mgr := sfi.NewManager()
	d := mgr.NewDomain("ext")
	rref, err := sfi.Export[netbricks.Operator](d, extension.Operator{Ext: ext})
	if err != nil {
		t.Fatal(err)
	}
	spec := dpdk.DefaultSpec()
	spec.Tuple.Proto = packet.ProtoTCP
	spec.Tuple.SrcPort = 0 // poison
	frame, _ := packet.Build(nil, spec)
	b := &netbricks.Batch{Pkts: []*packet.Packet{{Data: frame}}}
	err = rref.Call("p", func(op netbricks.Operator) error {
		return op.ProcessBatch(b)
	})
	if !errors.Is(err, sfi.ErrDomainFailed) {
		t.Fatalf("extension crash not contained: %v", err)
	}
}
