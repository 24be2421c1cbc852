package statestore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/packet"
	"repro/internal/session"
)

func rec(h uint64, backend uint32, pkts uint64) session.SpillRecord {
	return session.SpillRecord{
		Hash: h,
		Tuple: packet.FiveTuple{
			SrcIP:   packet.IPv4(h >> 16),
			DstIP:   packet.IPv4(backend),
			SrcPort: uint16(h),
			DstPort: 80,
			Proto:   17,
		},
		Backend: packet.IPv4(backend),
		Packets: pkts,
		Bytes:   pkts * 100,
	}
}

func TestFlowEntryRoundTrip(t *testing.T) {
	want := rec(0xdeadbeefcafe, 0x0a000001, 7)
	buf := encodeFlowEntry(nil, want)
	if len(buf) != flowEntrySize {
		t.Fatalf("entry size %d, want %d", len(buf), flowEntrySize)
	}
	if got := decodeFlowEntry(buf); got != want {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
}

func TestFlowIndexPutGet(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	fi, err := s.FlowIndex("worker-0")
	if err != nil {
		t.Fatal(err)
	}
	var batch []session.SpillRecord
	for i := uint64(0); i < 100; i++ {
		batch = append(batch, rec(i*977, uint32(i%3), i))
	}
	if err := fi.SpillFlows(batch); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		got, ok, err := fi.LookupFlow(i * 977)
		if err != nil || !ok {
			t.Fatalf("lookup %d: ok=%v err=%v", i, ok, err)
		}
		if got != batch[i] {
			t.Fatalf("lookup %d: %+v != %+v", i, got, batch[i])
		}
	}
	if _, ok, _ := fi.LookupFlow(123456789); ok {
		t.Fatal("phantom flow found")
	}
	n, err := fi.FlowCount()
	if err != nil || n != 100 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestFlowIndexCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{}).SetFlowCompactAfter(32)
	fi, err := s.FlowIndex("w")
	if err != nil {
		t.Fatal(err)
	}
	// Three generations of puts, overlapping hashes: later packets win.
	for gen := uint64(1); gen <= 3; gen++ {
		var batch []session.SpillRecord
		for i := uint64(0); i < 50; i++ {
			batch = append(batch, rec(i, uint32(1), gen*1000+i))
		}
		if err := fi.SpillFlows(batch); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.StatsSnapshot(); st.Compactions == 0 {
		t.Fatal("flow compaction never ran")
	}
	s.Close()

	s2 := openT(t, dir, Config{})
	fi2, err := s2.FlowIndex("w")
	if err != nil {
		t.Fatal(err)
	}
	n, err := fi2.FlowCount()
	if err != nil || n != 50 {
		t.Fatalf("count after reopen = %d, %v; want 50", n, err)
	}
	for i := uint64(0); i < 50; i++ {
		got, ok, err := fi2.LookupFlow(i)
		if err != nil || !ok {
			t.Fatalf("lookup %d after reopen: ok=%v err=%v", i, ok, err)
		}
		if got.Packets != 3000+i {
			t.Fatalf("flow %d: packets=%d, want latest generation %d", i, got.Packets, 3000+i)
		}
	}
}

func TestFlowIndexTornLogTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Config{}).SetFlowCompactAfter(-1)
	fi, err := s.FlowIndex("w")
	if err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows([]session.SpillRecord{rec(1, 9, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := fi.SpillFlows([]session.SpillRecord{rec(2, 9, 2)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, "w.flog")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, Config{})
	fi2, err := s2.FlowIndex("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := fi2.LookupFlow(1); !ok {
		t.Fatal("un-torn record lost")
	}
	if _, ok, _ := fi2.LookupFlow(2); ok {
		t.Fatal("torn record recovered")
	}
}

func TestFlowIndexNameValidation(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	for _, bad := range []string{"", "a/b", `a\b`} {
		if _, err := s.FlowIndex(bad); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	a, err := s.FlowIndex("worker-0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.FlowIndex("worker-0")
	if err != nil || a != b {
		t.Fatal("FlowIndex not cached per name")
	}
}

func TestFlowIndexManyDomains(t *testing.T) {
	s := openT(t, t.TempDir(), Config{})
	for w := 0; w < 4; w++ {
		fi, err := s.FlowIndex(fmt.Sprintf("worker-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if err := fi.SpillFlows([]session.SpillRecord{rec(uint64(w), uint32(w), 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 4; w++ {
		fi, _ := s.FlowIndex(fmt.Sprintf("worker-%d", w))
		if n, _ := fi.FlowCount(); n != 1 {
			t.Fatalf("worker-%d count = %d", w, n)
		}
		if _, ok, _ := fi.LookupFlow(uint64((w + 1) % 4)); ok && w != (w+1)%4 {
			t.Fatalf("worker-%d sees another domain's flow", w)
		}
	}
}
