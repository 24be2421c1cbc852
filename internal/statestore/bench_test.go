package statestore_test

// Checkpoint-to-disk cost: what the store adds to a durable epoch over
// the I/O no store could avoid. BenchmarkCheckpointEpochDisk measures its
// own baseline before the timed region — the same in-memory epochs, each
// written and fsynced to a bare file — and reports the ratio as "x-raw",
// which bench-gate holds under a ceiling. (The baseline used to be the
// in-memory epoch alone; since capture writes the wire form in one pass
// that costs a fifth of one fsync, and a ratio against it would measure
// the disk, not the store.)

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/statestore"
)

const benchFlows = 4096

func benchTable(b *testing.B) *session.Table {
	b.Helper()
	tbl := session.NewTable()
	for i := 0; i < benchFlows; i++ {
		tu := packet.FiveTuple{
			SrcIP:   packet.IPv4(0x0a000000 + uint32(i)),
			DstIP:   0x0a630001,
			SrcPort: uint16(1024 + i%50000),
			DstPort: 80,
			Proto:   17,
		}
		tbl.Track(tu, packet.IPv4(0xc0a80001+uint32(i%8)), 100)
	}
	return tbl
}

// ramEpoch is the in-memory epoch: the table's wire image, nothing
// touching disk. It runs on both sides of the ratio, so the ratio
// isolates the store's append against a bare write + fsync.
func ramEpoch(b *testing.B, tbl *session.Table) []byte {
	b.Helper()
	payload, err := tbl.StreamCheckpoint(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

func BenchmarkCheckpointEpochRAM(b *testing.B) {
	tbl := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ramEpoch(b, tbl)
	}
}

func BenchmarkCheckpointEpochDisk(b *testing.B) {
	tbl := benchTable(b)
	store, err := statestore.Open(statestore.Config{Dir: b.TempDir(), Fsync: statestore.FsyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()

	// Baseline: the same epochs, payload written and fsynced to a bare
	// file — one write, one fsync, no framing, no CRC, no lock.
	raw, err := os.Create(filepath.Join(b.TempDir(), "raw.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer raw.Close()
	const baselineIters = 64
	start := time.Now()
	for i := 0; i < baselineIters; i++ {
		if _, err := raw.Write(ramEpoch(b, tbl)); err != nil {
			b.Fatal(err)
		}
		if err := raw.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	rawPerOp := time.Since(start) / baselineIters

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := ramEpoch(b, tbl)
		if err := store.PersistEpoch("bench", uint64(i+1), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	diskPerOp := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(diskPerOp)/float64(rawPerOp), "x-raw")
}

func BenchmarkFlowIndexSpill(b *testing.B) {
	store, err := statestore.Open(statestore.Config{Dir: b.TempDir(), Fsync: statestore.FsyncGroup})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ix, err := store.FlowIndex("bench")
	if err != nil {
		b.Fatal(err)
	}
	const batch = 512
	recs := make([]session.SpillRecord, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			h := uint64(i)*batch + uint64(j)
			recs[j] = session.SpillRecord{Hash: h, Backend: 0xc0a80001, Packets: 1, Bytes: 100}
		}
		if err := ix.SpillFlows(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "flows/s")
}

func BenchmarkFlowIndexLookup(b *testing.B) {
	store, err := statestore.Open(statestore.Config{Dir: b.TempDir(), Fsync: statestore.FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ix, err := store.FlowIndex("bench")
	if err != nil {
		b.Fatal(err)
	}
	const flows = 1 << 16
	recs := make([]session.SpillRecord, flows)
	for i := range recs {
		recs[i] = session.SpillRecord{Hash: uint64(i)*2654435761 + 1, Backend: 0xc0a80001}
	}
	if err := ix.SpillFlows(recs); err != nil {
		b.Fatal(err)
	}
	if err := ix.Compact(); err != nil { // lookups hit the sorted index, not the overlay
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := recs[i%flows].Hash
		if _, ok, err := ix.LookupFlow(h); err != nil || !ok {
			b.Fatal(fmt.Errorf("lookup %x: ok=%v err=%v", h, ok, err))
		}
	}
}
