//go:build linux && (amd64 || arm64)

package netport

import (
	"net"
	"testing"
)

// TestBatchIOAllocatesNothing: a sendmmsg burst over loopback and the
// recvmmsg that collects it cost no heap allocation — the RawConn
// callbacks are built once per conn, not once per call.
func TestBatchIOAllocatesNothing(t *testing.T) {
	batched := func(c *net.UDPConn) batchConn {
		bc, err := newBatchConn(c)
		if err != nil {
			t.Fatal(err)
		}
		return bc
	}
	rxConn := udpSink(t)
	tx, rx := batched(udpSink(t)), batched(rxConn)
	dst := rxConn.LocalAddr().(*net.UDPAddr)

	const burst = 8
	payloads := make([][]byte, burst)
	bufs := make([][]byte, burst)
	for i := range payloads {
		payloads[i] = flowFrame(t, i)
		bufs[i] = make([]byte, MbufSize)
	}
	payloads[burst-1] = sizedFrame(t, 1400, 0) // a frame for the large room
	lens := make([]int, burst)

	if avg := testing.AllocsPerRun(100, func() {
		sent, err := tx.WriteBatch(payloads, dst)
		if err != nil || sent != burst {
			t.Fatalf("WriteBatch sent %d of %d: %v", sent, burst, err)
		}
		for got := 0; got < burst; {
			n, err := rx.ReadBatch(bufs, lens)
			if err != nil {
				t.Fatalf("ReadBatch: %v", err)
			}
			got += n
		}
	}); avg != 0 {
		t.Errorf("loopback WriteBatch/ReadBatch round trip: %v allocs/op, want 0", avg)
	}
	if lens[0] != len(payloads[0]) {
		t.Fatalf("first datagram read as %d bytes, sent %d", lens[0], len(payloads[0]))
	}
}
