package domain_test

// capped_test.go is outside package domain because session and maglev
// import netbricks, which imports domain.

import (
	"fmt"
	"testing"

	"repro/internal/domain"
	"repro/internal/maglev"
	"repro/internal/packet"
	"repro/internal/session"
)

// mapSpill is an in-memory session.Spill.
type mapSpill map[uint64]session.SpillRecord

func (m mapSpill) SpillFlows(recs []session.SpillRecord) error {
	for _, r := range recs {
		m[r.Hash] = r
	}
	return nil
}

func (m mapSpill) LookupFlow(h uint64) (session.SpillRecord, bool, error) {
	r, ok := m[h]
	return r, ok, nil
}

func (m mapSpill) FlowCount() (int, error) { return len(m), nil }

// TestStateSetBufferSettlesAtTheCaps: a domain over a capped session
// table and a balancer, both cycled through many fill-and-evict bands
// with a RAM epoch every few hundred flows, reallocates its sink's epoch
// buffers at most once after both tables have reached their caps. A
// balancer with no cap grows its part by a flow per new flow, and the
// buffers with it.
func TestStateSetBufferSettlesAtTheCaps(t *testing.T) {
	backends := make([]maglev.Backend, 8)
	for i := range backends {
		backends[i] = maglev.Backend{Name: fmt.Sprintf("be-%d", i), IP: packet.Addr(10, 1, 0, byte(i+1))}
	}
	lb, err := maglev.NewBalancer(backends, maglev.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	const sessionCap = 4096
	tbl := session.NewTable()
	tbl.SetSpill(mapSpill{}, sessionCap)
	d := spawnIdle(t, domain.NewStateSet().Add("maglev", lb).Add("session", tbl))

	capped, reallocs, epochs := false, 0, 0
	epoch := func() {
		open, _ := d.SinkBuffers()
		if err := d.EpochNow(); err != nil {
			t.Fatal(err)
		}
		if _, committed := d.SinkBuffers(); cap(open) == 0 || &committed[:1][0] != &open[:1][0] {
			if capped {
				reallocs++
			}
		}
		epochs++
	}
	const flows = 40 * (maglev.ConnTableSize/8 + 1) // 40 of the balancer's bands: 7/8 of its cap, past it, and back
	for i := 0; i < flows; i++ {
		tu := packet.FiveTuple{SrcIP: packet.IPv4(0x0b000000 + uint32(i)), DstIP: 0x0a630001, DstPort: 80, Proto: packet.ProtoUDP}
		tbl.Track(tu, lb.Pick(tu).IP, 64)
		if i%300 == 0 {
			epoch()
		}
		if !capped {
			spilled, _, _ := tbl.SpillStats()
			capped = spilled > 0 && lb.Evictions() > 0
		}
	}
	spilled, _, errs := tbl.SpillStats()
	if !capped || errs != 0 || lb.Evictions() < flows/2 || spilled < flows/2 {
		t.Fatalf("capped=%v: %d balancer evictions, %d flows spilled, %d spill errors; the bands did not cycle both tables", capped, lb.Evictions(), spilled, errs)
	}
	if lb.ConnCount() > maglev.ConnTableSize || tbl.Len() > sessionCap {
		t.Fatalf("%d connections, %d resident flows: over the caps", lb.ConnCount(), tbl.Len())
	}
	if reallocs > 1 {
		t.Fatalf("%d epoch buffer reallocations over %d epochs after both tables reached their caps, want <= 1", reallocs, epochs)
	}
}
