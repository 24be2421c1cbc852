package main

// Span recording for the traced run. Every layer boundary of the NF is a
// public interface, so the harness times each one from outside with a
// decorator: netbricks.BurstPort (phasePort, port.go), netbricks.Operator
// (timedOp), domain.Stateful + TokenCodec (timedState), domain.Persister
// (timedPersist) and session.Spill (timedSpill). Spans stay in memory
// until the run ends; the untraced run installs none of this.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/domain"
	"repro/internal/netbricks"
	"repro/internal/packet"
	"repro/internal/session"
)

// maxStages bounds a pipeline: parse, chaos (mem-chaos only), firewall,
// maglev, session.
const maxStages = 5

// batchRec is one batch's trip: port.rx on the feeder, then hop-in, the
// stages, hop-out and port.tx on the worker's serving goroutine. Times
// are nanoseconds since the child started. Pointer-free, so a long run's
// records cost the GC nothing.
type batchRec struct {
	ID             uint32
	In, Out        uint16 // packets received, packets transmitted
	Faulted        bool   // a stage panicked; the batch never reached port.tx
	Sampled        bool   // carries a packet the program's own tracer armed
	RxStart, RxEnd int64
	Enter, Exit    [maxStages]int64
	TxStart, TxEnd int64
}

// rxStamp carries a batch's port.rx span from the feeder goroutine to the
// worker's serving goroutine; first identifies the batch.
type rxStamp struct {
	first      *packet.Packet
	start, end int64
	n          int
}

// workerTrace is one worker's recorder. cur/open/chunks belong to the
// worker's serving goroutine (successive generations hand over through
// the supervisor, never overlap); fifo crosses goroutines under mu.
type workerTrace struct {
	t      *spanTrace
	worker int

	mu   sync.Mutex
	fifo []rxStamp

	cur    batchRec
	open   bool
	nextID uint32
	chunks [][]batchRec
}

const recChunk = 16384

// spanEvent is a span that is not part of a batch's trip: a checkpoint
// capture, an encode, a WAL append, a restore, a decode, a spill write or
// a spill-index lookup.
type spanEvent struct {
	Kind       string
	Worker     int
	Start, End int64
	N          int64 // flows captured/encoded, or records spilled
	Bytes      int64
}

// spanTrace is the traced run's recorder.
type spanTrace struct {
	base      time.Time
	measuring atomic.Bool // batch records are kept only inside the window
	sampled   bool        // look for spans armed by the program's tracer
	stages    []string
	workers   []*workerTrace

	evMu   sync.Mutex
	events []spanEvent
}

func newSpanTrace(base time.Time, workers int, stages []string, sampled bool) *spanTrace {
	t := &spanTrace{base: base, stages: stages, sampled: sampled}
	for w := 0; w < workers; w++ {
		t.workers = append(t.workers, &workerTrace{t: t, worker: w})
	}
	return t
}

// now is nanoseconds since the child started, from the monotonic clock.
func (t *spanTrace) now() int64 { return int64(time.Since(t.base)) }

func (t *spanTrace) event(kind string, worker int, start int64, n, bytes int64) {
	ev := spanEvent{Kind: kind, Worker: worker, Start: start, End: t.now(), N: n, Bytes: bytes}
	t.evMu.Lock()
	t.events = append(t.events, ev)
	t.evMu.Unlock()
}

// rx is called by the port wrapper on the feeder goroutine.
func (wt *workerTrace) rx(start, end int64, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	wt.mu.Lock()
	wt.fifo = append(wt.fifo, rxStamp{first: pkts[0], start: start, end: end, n: len(pkts)})
	wt.mu.Unlock()
}

// begin opens the record of the batch entering the first stage.
func (wt *workerTrace) begin(b *netbricks.Batch) {
	if wt.open {
		// The previous batch never reached port.tx: a stage panicked.
		wt.cur.Faulted = true
		wt.keep()
	}
	wt.cur = batchRec{ID: wt.nextID}
	wt.nextID++
	wt.open = true
	first := b.Pkts[0]
	wt.mu.Lock()
	for i, s := range wt.fifo {
		if s.first == first {
			wt.cur.RxStart, wt.cur.RxEnd, wt.cur.In = s.start, s.end, uint16(s.n)
			wt.fifo = wt.fifo[:copy(wt.fifo, wt.fifo[i+1:])]
			break
		}
	}
	wt.mu.Unlock()
	if wt.t.sampled {
		for _, p := range b.Pkts {
			if p.Trace.Armed() {
				wt.cur.Sampled = true
				break
			}
		}
	}
}

// tx closes the open record; called by the port wrapper on the worker's
// serving goroutine.
func (wt *workerTrace) tx(start, end int64, sent int) {
	if !wt.open {
		return
	}
	wt.cur.TxStart, wt.cur.TxEnd, wt.cur.Out = start, end, uint16(sent)
	wt.keep()
}

func (wt *workerTrace) keep() {
	wt.open = false
	if !wt.t.measuring.Load() {
		return
	}
	n := len(wt.chunks)
	if n == 0 || len(wt.chunks[n-1]) == recChunk {
		wt.chunks = append(wt.chunks, make([]batchRec, 0, recChunk))
		n++
	}
	wt.chunks[n-1] = append(wt.chunks[n-1], wt.cur)
}

// timedOp times one pipeline stage.
type timedOp struct {
	inner netbricks.Operator
	idx   int
	wt    *workerTrace
}

func (o *timedOp) Name() string { return o.inner.Name() }

func (o *timedOp) ProcessBatch(b *netbricks.Batch) error {
	wt := o.wt
	if o.idx == 0 {
		wt.begin(b)
	}
	t0 := wt.t.now()
	err := o.inner.ProcessBatch(b)
	wt.cur.Enter[o.idx], wt.cur.Exit[o.idx] = t0, wt.t.now()
	return err
}

// timedState times checkpoint capture/restore and the token codec.
type timedState struct {
	inner  *domain.StateSet
	t      *spanTrace
	worker int
	flows  func() int // live session flows, for the per-flow figures
}

func (s *timedState) Checkpoint(e *checkpoint.Engine) (any, error) {
	t0 := s.t.now()
	tok, err := s.inner.Checkpoint(e)
	s.t.event("capture", s.worker, t0, int64(s.flows()), 0)
	return tok, err
}

func (s *timedState) Restore(token any) error {
	t0 := s.t.now()
	err := s.inner.Restore(token)
	s.t.event("restore", s.worker, t0, int64(s.flows()), 0)
	return err
}

func (s *timedState) Reset() { s.inner.Reset() }

func (s *timedState) EncodeToken(token any) ([]byte, error) {
	t0 := s.t.now()
	b, err := s.inner.EncodeToken(token)
	s.t.event("encode", s.worker, t0, int64(s.flows()), int64(len(b)))
	return b, err
}

func (s *timedState) DecodeToken(data []byte) (any, error) {
	t0 := s.t.now()
	tok, err := s.inner.DecodeToken(data)
	s.t.event("decode", s.worker, t0, 0, int64(len(data)))
	return tok, err
}

// timedPersist times the durable epoch append.
type timedPersist struct {
	inner domain.Persister
	t     *spanTrace
}

func (p *timedPersist) PersistEpoch(name string, seq uint64, payload []byte) error {
	t0 := p.t.now()
	err := p.inner.PersistEpoch(name, seq, payload)
	var w int
	fmt.Sscanf(name, "worker-%d", &w)
	p.t.event("persist", w, t0, 0, int64(len(payload)))
	return err
}

func (p *timedPersist) LastEpoch(name string) ([]byte, uint64, bool, error) {
	return p.inner.LastEpoch(name)
}

// timedSpill times the on-disk flow index under the session table.
type timedSpill struct {
	inner  session.Spill
	t      *spanTrace
	worker int
}

func (s *timedSpill) SpillFlows(recs []session.SpillRecord) error {
	t0 := s.t.now()
	err := s.inner.SpillFlows(recs)
	s.t.event("spill", s.worker, t0, int64(len(recs)), 0)
	return err
}

func (s *timedSpill) LookupFlow(hash uint64) (session.SpillRecord, bool, error) {
	t0 := s.t.now()
	rec, ok, err := s.inner.LookupFlow(hash)
	s.t.event("lookup", s.worker, t0, 0, 0)
	return rec, ok, err
}

func (s *timedSpill) FlowCount() (int, error) { return s.inner.FlowCount() }

// spanSummary is what the spans add up to over the measured window.
type spanSummary struct {
	batches          float64 // that reached port.tx; faulted ones are left out
	pktsIn, pktsOut  float64
	rx, tx           float64
	hopIn, hopOut    float64
	pipeline         float64                // first stage entry to last stage exit
	stageSelf        []float64              // per stage, before child spans are taken out
	segSum, segCount map[string]float64     // sampled batches: previous stage exit to this stage exit
	events           map[string][]spanEvent // inside the window, by kind
	late             map[string][]spanEvent // after the window (the reopen epilogue)
}

func (t *spanTrace) summarize(t1, t2 int64) spanSummary {
	s := spanSummary{
		stageSelf: make([]float64, len(t.stages)),
		segSum:    map[string]float64{}, segCount: map[string]float64{},
		events: map[string][]spanEvent{}, late: map[string][]spanEvent{},
	}
	last := len(t.stages) - 1
	for _, wt := range t.workers {
		for _, chunk := range wt.chunks {
			for i := range chunk {
				r := &chunk[i]
				if r.Faulted {
					continue
				}
				s.batches++
				s.pktsIn += float64(r.In)
				s.pktsOut += float64(r.Out)
				s.rx += float64(r.RxEnd - r.RxStart)
				s.hopIn += float64(r.Enter[0] - r.RxEnd)
				s.pipeline += float64(r.Exit[last] - r.Enter[0])
				s.hopOut += float64(r.TxStart - r.Exit[last])
				s.tx += float64(r.TxEnd - r.TxStart)
				for k := range t.stages {
					s.stageSelf[k] += float64(r.Exit[k] - r.Enter[k])
				}
				if r.Sampled {
					for k := 1; k <= last; k++ {
						s.segSum[t.stages[k]] += float64(r.Exit[k] - r.Exit[k-1])
						s.segCount[t.stages[k]]++
					}
					s.segSum["tx"] += float64(r.TxEnd - r.Exit[last])
					s.segCount["tx"]++
				}
			}
		}
	}
	for _, ev := range t.events {
		switch {
		case ev.Start >= t1 && ev.Start < t2:
			s.events[ev.Kind] = append(s.events[ev.Kind], ev)
		case ev.Start >= t2:
			s.late[ev.Kind] = append(s.late[ev.Kind], ev)
		}
	}
	return s
}

func eventDurations(evs []spanEvent) (durs []float64, sum, n, bytes float64) {
	for _, ev := range evs {
		d := float64(ev.End - ev.Start)
		durs = append(durs, d)
		sum += d
		n += float64(ev.N)
		bytes += float64(ev.Bytes)
	}
	sort.Float64s(durs)
	return durs, sum, n, bytes
}

// ledgerLine is one row of the cost ledger: a layer's self time per
// forwarded packet.
type ledgerLine struct {
	Name string  `json:"name"`
	Ns   float64 `json:"ns_per_pkt"`
}

// layerMetrics turns the spans into the per-layer metrics and the ledger.
// wire says the port is a socket; wholeNs is the traced run's CPU time
// per forwarded packet; workers × window is the serving goroutines' time.
func (t *spanTrace) layerMetrics(s spanSummary, wire bool, workers int, windowNs, wholeNs float64) (map[string]float64, []ledgerLine) {
	m := map[string]float64{}
	pk := s.pktsOut
	var lines []ledgerLine
	portName := "dpdk"
	if wire {
		// A socket port's receive span is the worker waiting for the
		// next datagram, not work: the receive loops run inside netport,
		// out of reach of an outside span. Their cost is the CPU the
		// spans leave over; it is added as a line of its own below.
		portName = "netport"
		m["span.netport_rx_wait_ns_per_pkt"] = ratio(s.rx, pk)
	} else {
		m["dpdk.rx_busy_ns_per_pkt"] = ratio(s.rx, pk)
		lines = append(lines, ledgerLine{"dpdk.rx", ratio(s.rx, pk)})
	}
	m[portName+".tx_busy_ns_per_pkt"] = ratio(s.tx, pk)

	spillDurs, spillNs, spillN, _ := eventDurations(s.events["spill"])
	lookupDurs, lookupNs, _, _ := eventDurations(s.events["lookup"])

	var selfSum float64
	for k, name := range t.stages {
		self := s.stageSelf[k]
		selfSum += self
		if name == "session" {
			self -= spillNs + lookupNs // child spans: the spill index
		}
		if name != "chaos" {
			m[name+".busy_ns_per_pkt"] = ratio(self, pk)
		}
		lines = append(lines, ledgerLine{name, ratio(self, pk)})
	}
	crossings := s.batches * float64(len(t.stages)-1)
	crossNs := s.pipeline - selfSum
	m["sfi.crossing_ns"] = ratio(crossNs, crossings)
	m["netbricks.pipeline_ns_per_pkt"] = ratio(s.pipeline, pk)
	m["netbricks.batch_fill"] = ratio(s.pktsIn, s.batches*batchSize)
	m["domain.hop_in_ns_per_batch"] = ratio(s.hopIn, s.batches)
	m["domain.hop_out_ns_per_batch"] = ratio(s.hopOut, s.batches)
	lines = append(lines,
		ledgerLine{"sfi.crossings", ratio(crossNs, pk)},
		ledgerLine{"domain.hop_out", ratio(s.hopOut, pk)},
		ledgerLine{portName + ".tx", ratio(s.tx, pk)})

	capDurs, capNs, capFlows, _ := eventDurations(s.events["capture"])
	encDurs, encNs, encFlows, encBytes := eventDurations(s.events["encode"])
	perDurs, perNs, _, _ := eventDurations(s.events["persist"])
	// Restores and decodes also happen after the window, in mem-durable's
	// reopen epilogue; those count for the percentiles, not for the ledger.
	everywhere := func(kind string) []spanEvent {
		return append(append([]spanEvent(nil), s.events[kind]...), s.late[kind]...)
	}
	resDurs, _, _, _ := eventDurations(everywhere("restore"))
	_, resInNs, _, _ := eventDurations(s.events["restore"])
	decDurs, _, _, _ := eventDurations(everywhere("decode"))
	m["checkpoint.capture_ms_p50"] = percentile(capDurs, 0.5) / 1e6
	m["checkpoint.capture_ns_per_flow"] = ratio(capNs, capFlows)
	m["checkpoint.encode_ms_p50"] = percentile(encDurs, 0.5) / 1e6
	m["checkpoint.encode_bytes_per_flow"] = ratio(encBytes, encFlows)
	m["checkpoint.stall_share"] = ratio(capNs+encNs, float64(workers)*windowNs)
	m["statestore.persist_ms_p50"] = percentile(perDurs, 0.5) / 1e6
	m["session.evictions"] = float64(len(spillDurs))
	m["session.evict_stall_ms_max"] = percentile(spillDurs, 1) / 1e6
	m["statestore.spill_us_per_flow"] = ratio(spillNs, spillN) / 1e3
	m["statestore.lookup_us_p50"] = percentile(lookupDurs, 0.5) / 1e3
	m["checkpoint.restore_ms_p50"] = percentile(resDurs, 0.5) / 1e6
	m["checkpoint.decode_ms_p50"] = percentile(decDurs, 0.5) / 1e6
	for _, l := range []ledgerLine{
		{"checkpoint.capture", ratio(capNs, pk)},
		{"checkpoint.encode", ratio(encNs, pk)},
		{"statestore.persist", ratio(perNs, pk)},
		{"checkpoint.restore", ratio(resInNs, pk)},
		{"statestore.spill", ratio(spillNs, pk)},
		{"statestore.lookup", ratio(lookupNs, pk)},
	} {
		if l.Ns > 0 {
			lines = append(lines, l)
		}
	}

	var sum float64
	for _, l := range lines {
		sum += l.Ns
	}
	m["ledger.sum_ns_per_pkt"] = sum
	m["ledger.residual_share"] = ratio(wholeNs-sum, wholeNs)
	if wire {
		m["netport.rx_busy_ns_per_pkt"] = wholeNs - sum
		lines = append(lines, ledgerLine{"netport.rx (the CPU the spans leave over)", wholeNs - sum})
	} else {
		lines = append(lines, ledgerLine{"residual", wholeNs - sum})
	}

	for stage, n := range s.segCount {
		m["span.seg."+stage+".mean_ns"] = ratio(s.segSum[stage], n)
	}
	return m, lines
}

// traceBatchLines caps the batch lines of a trace file: a 10 s window of
// mem-steady holds some 700000 batches, 400 MB of JSON. Every recorded
// batch feeds the metrics; the file keeps the earliest of the window.
const traceBatchLines = 20000

// writeTrace writes the spans as JSON lines: a header, then one line per
// batch carrying that batch's spans under its batch id, then one line per
// event span.
func (t *spanTrace) writeTrace(path, workload string, seed int64, t1, t2 int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var recorded int
	for _, wt := range t.workers {
		for _, c := range wt.chunks {
			recorded += len(c)
		}
	}
	written := min(recorded, traceBatchLines)
	fmt.Fprintf(w, `{"trace":%q,"seed":%d,"clock":"ns since the NF child started","window_ns":[%d,%d],"stages":%q,"batches_recorded":%d,"batches_written":%d,"events":%d}`+"\n",
		workload, seed, t1, t2, t.stages, recorded, written, len(t.events))
	span := func(first *bool, name string, start, end int64) {
		if !*first {
			w.WriteByte(',')
		}
		*first = false
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d}`, name, start, end)
	}
	last := len(t.stages) - 1
	perWorker := written / max(len(t.workers), 1)
	for _, wt := range t.workers {
		left := perWorker
		for _, chunk := range wt.chunks {
			for i := range chunk {
				if left == 0 {
					break
				}
				left--
				r := &chunk[i]
				fmt.Fprintf(w, `{"batch":"%d.%d","worker":%d,"pkts_in":%d,"pkts_out":%d,"faulted":%t,"spans":[`,
					wt.worker, r.ID, wt.worker, r.In, r.Out, r.Faulted)
				first := true
				span(&first, "port.rx", r.RxStart, r.RxEnd)
				span(&first, "hop-in", r.RxEnd, r.Enter[0])
				for k, name := range t.stages {
					if r.Exit[k] != 0 {
						span(&first, name, r.Enter[k], r.Exit[k])
					}
				}
				if !r.Faulted {
					span(&first, "hop-out", r.Exit[last], r.TxStart)
					span(&first, "port.tx", r.TxStart, r.TxEnd)
				}
				w.WriteString("]}\n")
			}
		}
	}
	for _, ev := range t.events {
		fmt.Fprintf(w, `{"span":%q,"worker":%d,"start_ns":%d,"end_ns":%d,"flows":%d,"bytes":%d}`+"\n",
			ev.Kind, ev.Worker, ev.Start, ev.End, ev.N, ev.Bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
