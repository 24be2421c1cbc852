package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Labels name a metric series within a family ({"domain": "worker-3"}).
// Labels are resolved to a string key at registration time only; the
// record path never sees them.
type Labels map[string]string

// With returns a copy of l with k=v added (l itself is not modified), so
// call sites can layer e.g. a queue index onto a port's base labels.
func (l Labels) With(k, v string) Labels {
	out := make(Labels, len(l)+1)
	for lk, lv := range l {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// String serializes labels in Prometheus form with deterministic
// (sorted) key order: {a="1",b="2"}. Empty labels serialize to "".
func (l Labels) String() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind selects the Prometheus TYPE line and the export shape.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a name, serialized labels, and a way
// to read the cell at scrape time.
type metric struct {
	name   string
	labels string
	kind   metricKind
	read   func() float64 // counter/gauge value at scrape time
	hist   *Histogram
}

func (m *metric) key() string { return m.name + m.labels }

// Registry maps names and labels onto metric cells for export. All
// methods are safe for concurrent use, including registration while
// other goroutines record into already-registered cells — writers never
// touch the registry. A nil *Registry is valid and ignores every call,
// so layers can instrument unconditionally and let the caller decide
// whether anything is exported.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// add installs (or replaces) a series. Replacement keeps registration
// idempotent for runners that re-register per run.
func (r *Registry) add(m *metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metrics[m.key()] = m
	r.mu.Unlock()
}

// Series constructors shared by the Registry's immediate registration
// and the Txn's batched one.

func counterMetric(name string, labels Labels, c *Counter) *metric {
	return &metric{name: name, labels: labels.String(), kind: counterKind,
		read: func() float64 { return float64(c.Load()) }}
}

func counterFuncMetric(name string, labels Labels, fn func() float64) *metric {
	return &metric{name: name, labels: labels.String(), kind: counterKind, read: fn}
}

func gaugeMetric(name string, labels Labels, g *Gauge) *metric {
	return &metric{name: name, labels: labels.String(), kind: gaugeKind,
		read: func() float64 { return float64(g.Load()) }}
}

func gaugeFuncMetric(name string, labels Labels, fn func() float64) *metric {
	return &metric{name: name, labels: labels.String(), kind: gaugeKind, read: fn}
}

func histogramMetric(name string, labels Labels, h *Histogram) *metric {
	return &metric{name: name, labels: labels.String(), kind: histogramKind, hist: h}
}

// RegisterCounter exports c under name+labels.
func (r *Registry) RegisterCounter(name string, labels Labels, c *Counter) {
	r.add(counterMetric(name, labels, c))
}

// RegisterCounterFunc exports a counter whose value is computed at
// scrape time (for monotonic values kept in a foreign representation,
// e.g. accumulated backoff nanoseconds).
func (r *Registry) RegisterCounterFunc(name string, labels Labels, fn func() float64) {
	r.add(counterFuncMetric(name, labels, fn))
}

// RegisterGauge exports g under name+labels.
func (r *Registry) RegisterGauge(name string, labels Labels, g *Gauge) {
	r.add(gaugeMetric(name, labels, g))
}

// RegisterGaugeFunc exports a gauge computed at scrape time (mailbox
// depth, pool occupancy). fn may take locks; it runs only on the read
// path.
func (r *Registry) RegisterGaugeFunc(name string, labels Labels, fn func() float64) {
	r.add(gaugeFuncMetric(name, labels, fn))
}

// RegisterHistogram exports h under name+labels. By convention latency
// histograms are named *_seconds; buckets and sums are exported in
// seconds regardless of the nanosecond cells inside.
func (r *Registry) RegisterHistogram(name string, labels Labels, h *Histogram) {
	r.add(histogramMetric(name, labels, h))
}

// Registrar is the registration surface a component exports its metrics
// through — satisfied by *Registry (each series installs immediately)
// and by *Txn (series install together at Commit). Components that
// register a related group of series while scrapes may be in flight
// should take a Registrar so callers can make the group atomic.
type Registrar interface {
	RegisterCounter(name string, labels Labels, c *Counter)
	RegisterCounterFunc(name string, labels Labels, fn func() float64)
	RegisterGaugeFunc(name string, labels Labels, fn func() float64)
	RegisterHistogram(name string, labels Labels, h *Histogram)
}

var (
	_ Registrar = (*Registry)(nil)
	_ Registrar = (*Txn)(nil)
)

// Txn batches registrations into one atomic install. Registering series
// one call at a time is fine before traffic, but a registration burst
// while the metrics endpoint is live — a runner re-registering its
// per-worker series at Run time, a supervisor spawning domains — lets a
// concurrent scrape observe the group half-replaced: some series from
// the new generation, some from the old (or missing). A Txn accumulates
// the group and Commit installs it under one lock hold, so every
// snapshot sees the group entirely before or entirely after.
//
// A Txn is single-goroutine (accumulate, then Commit once); the Commit
// itself is what synchronizes with scrapes. A Txn from a nil registry
// discards everything, preserving the registry's nil-is-disabled
// contract.
type Txn struct {
	r       *Registry
	pending []*metric
}

// Begin opens a registration transaction on r.
func (r *Registry) Begin() *Txn { return &Txn{r: r} }

func (t *Txn) add(m *metric) {
	if t.r == nil {
		return
	}
	t.pending = append(t.pending, m)
}

// RegisterCounter stages c for Commit.
func (t *Txn) RegisterCounter(name string, labels Labels, c *Counter) {
	t.add(counterMetric(name, labels, c))
}

// RegisterCounterFunc stages a computed counter for Commit.
func (t *Txn) RegisterCounterFunc(name string, labels Labels, fn func() float64) {
	t.add(counterFuncMetric(name, labels, fn))
}

// RegisterGaugeFunc stages a computed gauge for Commit.
func (t *Txn) RegisterGaugeFunc(name string, labels Labels, fn func() float64) {
	t.add(gaugeFuncMetric(name, labels, fn))
}

// RegisterHistogram stages h for Commit.
func (t *Txn) RegisterHistogram(name string, labels Labels, h *Histogram) {
	t.add(histogramMetric(name, labels, h))
}

// Commit installs every staged series under one lock hold, making the
// whole group visible to scrapes at once. The Txn empties and may be
// reused.
func (t *Txn) Commit() {
	if t.r == nil || len(t.pending) == 0 {
		t.pending = nil
		return
	}
	t.r.mu.Lock()
	for _, m := range t.pending {
		t.r.metrics[m.key()] = m
	}
	t.r.mu.Unlock()
	t.pending = nil
}

// snapshotMetrics copies the metric list (sorted by name, then labels)
// so exports iterate without holding the lock across user read funcs.
func (r *Registry) snapshotMetrics() []*metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus writes every registered series in the Prometheus text
// exposition format: one # TYPE line per family, histograms expanded to
// cumulative _bucket/_sum/_count series with le bounds in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.snapshotMetrics() {
		if m.name != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
			lastFamily = m.name
		}
		if m.kind != histogramKind {
			fmt.Fprintf(&b, "%s%s %g\n", m.name, m.labels, m.read())
			continue
		}
		s := m.hist.Snapshot()
		var cum uint64
		for i, c := range s.Buckets {
			cum += c
			le := "+Inf"
			if i < NumBuckets-1 {
				le = fmt.Sprintf("%g", BucketUpper(i).Seconds())
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, withLabel(m.labels, "le", le), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %g\n", m.name, m.labels, s.Sum.Seconds())
		fmt.Fprintf(&b, "%s_count%s %d\n", m.name, m.labels, s.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLabel splices one more label into an already-serialized label set.
func withLabel(labels, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// HistogramValue is the JSON export shape of one histogram series.
type HistogramValue struct {
	Count   uint64  `json:"count"`
	SumSecs float64 `json:"sum_seconds"`
	P50Secs float64 `json:"p50_seconds"`
	P99Secs float64 `json:"p99_seconds"`
}

// Snapshot returns every registered series as a flat map from
// "name{labels}" to a float64 (counters, gauges) or a HistogramValue,
// per the package's snapshot contract.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, m := range r.snapshotMetrics() {
		if m.kind != histogramKind {
			out[m.key()] = m.read()
			continue
		}
		s := m.hist.Snapshot()
		out[m.key()] = HistogramValue{
			Count:   s.Count,
			SumSecs: s.Sum.Seconds(),
			P50Secs: s.Quantile(0.5).Seconds(),
			P99Secs: s.Quantile(0.99).Seconds(),
		}
	}
	return out
}

// WriteJSON writes Snapshot as one JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}
