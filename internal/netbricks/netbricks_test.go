package netbricks

import (
	"errors"
	"testing"

	"repro/internal/dpdk"
	"repro/internal/leakcheck"
	"repro/internal/linear"
	"repro/internal/packet"
	"repro/internal/sfi"
)

// newPort builds a port and registers the pool-leak invariant: every
// buffer must be back by test end.
func newPort(t *testing.T, pool int) *dpdk.Port {
	t.Helper()
	port := dpdk.NewPort(dpdk.Config{PoolSize: pool})
	leakcheck.Pool(t, "port", port.PoolAvailable)
	return port
}

// single is the paper's one-thread run: one worker on a single-queue
// port, over a pipeline the test built itself.
func single(port *dpdk.Port, batch int, direct *Pipeline, isolated *IsolatedPipeline) *ShardedRunner {
	r := &ShardedRunner{Port: port, Workers: 1, BatchSize: batch}
	if direct != nil {
		r.NewDirect = func(int) *Pipeline { return direct }
	} else {
		r.NewIsolated = func(int) (*IsolatedPipeline, error) { return isolated, nil }
	}
	return r
}

func TestDirectPipelineNullFilters(t *testing.T) {
	port := newPort(t, 128)
	pl := NewPipeline(NullFilter{}, NullFilter{}, NullFilter{})
	stats, err := single(port, 32, pl, nil).Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 10 || stats.Packets != 320 {
		t.Fatalf("stats = %+v", stats)
	}
	if port.PoolAvailable() != 128 {
		t.Fatalf("pool leak: %d", port.PoolAvailable())
	}
}

func TestPipelineMoveSemantics(t *testing.T) {
	// After Process, the caller's original handle must be dead: the
	// pipeline took ownership.
	pl := NewPipeline(NullFilter{})
	b := linear.New(&Batch{})
	orig := b
	out, err := pl.Process(b)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Valid() {
		t.Fatal("original handle still valid after pipeline took ownership")
	}
	if !out.Valid() {
		t.Fatal("returned handle invalid")
	}
}

func TestParseAndFilterDropping(t *testing.T) {
	port := newPort(t, 64)
	evenPort := Filter{Label: "even-src", Pred: func(p *packet.Packet) bool {
		return p.Tuple().SrcPort%2 == 0
	}}
	pl := NewPipeline(Parse{}, evenPort)
	stats, err := single(port, 16, pl, nil).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets+stats.Drops != 64 {
		t.Fatalf("packets %d + drops %d != 64", stats.Packets, stats.Drops)
	}
	if port.PoolAvailable() != 64 {
		t.Fatalf("pool leak after drops: %d", port.PoolAvailable())
	}
}

func TestTransformError(t *testing.T) {
	pl := NewPipeline(Transform{Fn: func(*packet.Packet) error {
		return errors.New("bad packet")
	}})
	b := linear.New(&Batch{Pkts: []*packet.Packet{{}}})
	_, err := pl.Process(b)
	if err == nil {
		t.Fatal("transform error not surfaced")
	}
}

func TestIsolatedPipelineProcesses(t *testing.T) {
	mgr := sfi.NewManager()
	ip, err := NewIsolatedPipeline(mgr, []Operator{NullFilter{}, NullFilter{}, NullFilter{}, NullFilter{}, NullFilter{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ip.stages) != 5 {
		t.Fatalf("Len = %d", len(ip.stages))
	}
	port := newPort(t, 64)
	stats, err := single(port, 8, nil, ip).Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 5 || stats.Packets != 40 {
		t.Fatalf("stats = %+v", stats)
	}
	// Every stage domain saw every batch.
	for _, st := range ip.Stages() {
		calls, _, _, _, _ := st.Domain.Stats.Snapshot()
		if calls != 5 {
			t.Fatalf("stage %s calls = %d, want 5", st.Domain.Name(), calls)
		}
	}
}

func TestIsolatedPipelineZeroCopy(t *testing.T) {
	// The same underlying packet buffers flow through all domains: no
	// copies are made crossing protection boundaries.
	mgr := sfi.NewManager()
	var seen []*packet.Packet
	spy := Transform{Label: "spy", Fn: func(p *packet.Packet) error {
		seen = append(seen, p)
		return nil
	}}
	ip, err := NewIsolatedPipeline(mgr, []Operator{spy}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &packet.Packet{Data: []byte{1, 2, 3}}
	b := linear.New(&Batch{Pkts: []*packet.Packet{pkt}})
	out, err := ip.Process(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != pkt {
		t.Fatal("stage saw a copy, not the original packet")
	}
	final, err := out.Into()
	if err != nil {
		t.Fatal(err)
	}
	if final.Pkts[0] != pkt {
		t.Fatal("caller got back a copy, not the original packet")
	}
}

func TestIsolatedPipelineFaultContainmentAndRecovery(t *testing.T) {
	mgr := sfi.NewManager()
	inj := &FaultInjector{PanicOn: 3}
	ops := []Operator{NullFilter{}, inj, NullFilter{}}
	factories := []func() Operator{
		nil,
		func() Operator { return &FaultInjector{} }, // recovered stage never panics again
		nil,
	}
	ip, err := NewIsolatedPipeline(mgr, ops, factories)
	if err != nil {
		t.Fatal(err)
	}
	port := newPort(t, 64)
	r := single(port, 4, nil, ip)
	r.AutoRecover = true
	stats, err := r.Run(10)
	if err != nil {
		t.Fatalf("run with auto-recover: %v", err)
	}
	if stats.Faults != 1 || stats.Recovered != 1 {
		t.Fatalf("stats = %+v, want 1 fault + 1 recovery", stats)
	}
	if stats.Batches != 9 { // one batch lost to the fault
		t.Fatalf("batches = %d, want 9", stats.Batches)
	}
	if port.PoolAvailable() != 64 {
		t.Fatalf("pool leak after fault: %d", port.PoolAvailable())
	}
	for _, st := range ip.Stages() {
		if st.Domain.Failed() {
			t.Fatalf("stage %s still failed", st.Domain.Name())
		}
	}
}

func TestIsolatedPipelineFaultWithoutRecoveryStops(t *testing.T) {
	mgr := sfi.NewManager()
	ip, err := NewIsolatedPipeline(mgr, []Operator{&FaultInjector{PanicOn: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	port := newPort(t, 16)
	_, err = single(port, 4, nil, ip).Run(5)
	if !errors.Is(err, ErrStageFailed) || !errors.Is(err, sfi.ErrDomainFailed) {
		t.Fatalf("err = %v, want ErrStageFailed wrapping ErrDomainFailed", err)
	}
	if port.PoolAvailable() != 16 {
		t.Fatalf("pool leak: %d", port.PoolAvailable())
	}
}

// TestStagePanicErrorText pins the error an isolated pipeline returns for
// a stage panic — its text, the fmt.Errorf text of the parent of the
// typed errors byte for byte, and both sentinels it wraps. A supervised
// worker's domain adds "domain worker-N: " in front (domain's
// TestFaultErrorText).
func TestStagePanicErrorText(t *testing.T) {
	ip, err := NewIsolatedPipeline(sfi.NewManager(), []Operator{NullFilter{}, &FaultInjector{PanicOn: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ip.Process(linear.New(&Batch{}))
	const want = "stage 1 (stage-1-fault-injector): netbricks: stage failed: domain 2 (stage-1-fault-injector) panicked in process: injected fault on batch 1: sfi: domain failed during invocation"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant  %s", err, want)
	}
	if !errors.Is(err, ErrStageFailed) || !errors.Is(err, sfi.ErrDomainFailed) {
		t.Fatalf("err = %v, want ErrStageFailed and sfi.ErrDomainFailed", err)
	}
}

// TestRunnerValidation: the single-worker shape is held to the same rules
// as any other — exactly one pipeline factory, a positive batch size.
func TestRunnerValidation(t *testing.T) {
	port := newPort(t, 8)
	if _, err := single(port, 4, NewPipeline(), nil).Run(1); err != nil {
		t.Fatalf("one worker on a single-queue port rejected: %v", err)
	}
	none := &ShardedRunner{Port: port, Workers: 1, BatchSize: 4}
	if _, err := none.Run(1); err == nil {
		t.Fatal("runner with no pipeline accepted")
	}
	if _, err := single(port, 0, NewPipeline(), nil).Run(1); err == nil {
		t.Fatal("runner with zero batch size accepted")
	}
	both := single(port, 4, NewPipeline(), nil)
	both.NewIsolated = func(int) (*IsolatedPipeline, error) { return &IsolatedPipeline{}, nil }
	if _, err := both.Run(1); err == nil {
		t.Fatal("runner with both pipelines accepted")
	}
}

func TestBatchDrop(t *testing.T) {
	pkts := []*packet.Packet{{UserTag: 1}, {UserTag: 2}, {UserTag: 3}}
	b := &Batch{Pkts: append([]*packet.Packet(nil), pkts...)}
	b.Drop(0)
	if len(b.Pkts) != 2 || len(b.Dropped) != 1 {
		t.Fatalf("len=%d dropped=%d", len(b.Pkts), len(b.Dropped))
	}
	if b.Dropped[0].UserTag != 1 {
		t.Fatal("wrong packet dropped")
	}
	// Remaining packets are 3 and 2 (swap-remove).
	tags := map[uint64]bool{}
	for _, p := range b.Pkts {
		tags[p.UserTag] = true
	}
	if !tags[2] || !tags[3] {
		t.Fatalf("remaining tags = %v", tags)
	}
}

func TestFaultInjectorCountsBatches(t *testing.T) {
	inj := &FaultInjector{PanicOn: 2}
	if err := inj.ProcessBatch(nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on second batch")
		}
	}()
	_ = inj.ProcessBatch(nil)
}

func TestOperatorNames(t *testing.T) {
	cases := []struct {
		op   Operator
		want string
	}{
		{NullFilter{}, "null-filter"},
		{Parse{}, "parse"},
		{Filter{}, "filter"},
		{Filter{Label: "x"}, "x"},
		{Transform{}, "transform"},
		{Transform{Label: "y"}, "y"},
		{&FaultInjector{}, "fault-injector"},
	}
	for _, c := range cases {
		if got := c.op.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// Sanity for Figure 2 prerequisites: overhead of the isolated pipeline is
// per-stage, so doubling stages roughly doubles total overhead; measured
// per-call it should be roughly constant. Tested loosely here; precise
// numbers come from the bench harness.
func TestIsolationOverheadScalesWithStages(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	mk := func(n int) (*IsolatedPipeline, *Pipeline) {
		var ops []Operator
		for i := 0; i < n; i++ {
			ops = append(ops, NullFilter{})
		}
		mgr := sfi.NewManager()
		ip, err := NewIsolatedPipeline(mgr, ops, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ip, NewPipeline(ops...)
	}
	run := func(ip *IsolatedPipeline, pl *Pipeline, batches int) (int, int) {
		isoCalls := 0
		for i := 0; i < batches; i++ {
			b := linear.New(&Batch{})
			out, err := ip.Process(b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := out.Into(); err != nil {
				t.Fatal(err)
			}
			isoCalls++
			b2 := linear.New(&Batch{})
			out2, err := pl.Process(b2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := out2.Into(); err != nil {
				t.Fatal(err)
			}
		}
		return isoCalls, batches
	}
	ip5, pl5 := mk(5)
	run(ip5, pl5, 100)
	for _, st := range ip5.Stages() {
		calls, _, _, _, _ := st.Domain.Stats.Snapshot()
		if calls != 100 {
			t.Fatalf("stage saw %d calls, want 100", calls)
		}
	}

}
