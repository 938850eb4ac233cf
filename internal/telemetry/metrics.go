// Package telemetry is the suite's unified observability spine: a
// process-wide, lock-cheap metrics registry with Prometheus
// text-format exposition, request-scoped trace collection with
// Chrome-trace export, and the fixed-size phase ring training loops
// record their per-step breakdown into.
//
// The paper's Related Work holds up EEG — Google's never-released
// tool that "can reconstruct the dynamic execution timeline of
// TensorFlow operations" — as the missing observability layer for DL
// systems. The runtime's per-op Event records are the op-level half of
// that; this package joins them up with the serving and training
// layers so every microsecond of a request or a training step is
// attributable to a phase, an op, and a pool lane.
//
// # Staying off the hot path
//
// Nothing here synchronizes on the serving or training fast path.
// Counters and gauges are single atomics; subsystems that already keep
// atomic counter blocks (serve's stats, sched's pool gauges, the
// tensor arena) register scrape-time reader functions instead of
// double-counting, so enabling /metrics does not add a single
// instruction to request execution. Trace sampling is decided once at
// admission (an atomic increment), and per-op span capture reuses the
// runtime's existing Event collection. The CI overhead gate holds the
// whole subsystem under 2% on BenchmarkServe*.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LogBuckets is the log-bucketed histogram resolution, generalized out
// of the serving engine's latency stats: bucket k holds durations in
// [2^k, 2^(k+1)) microseconds, so 40 buckets cover sub-microsecond to
// ~12 days.
const LogBuckets = 40

// BucketOf maps a microsecond duration to its histogram bucket.
func BucketOf(us uint64) int {
	k := 0
	for v := us; v > 1 && k < LogBuckets-1; v >>= 1 {
		k++
	}
	return k
}

// BucketUpper returns the exclusive upper bound of bucket k in
// microseconds: 2^(k+1).
func BucketUpper(k int) uint64 { return uint64(1) << uint(k+1) }

// QuantileOf returns the upper bound of the bucket containing the
// q-quantile entry of a bucket-count snapshot (a LogHistogram snapshot
// or a delta of two). Zero when the snapshot is empty.
func QuantileOf(buckets *[LogBuckets]uint64, q float64) time.Duration {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want >= total {
		want = total - 1
	}
	var seen uint64
	for i, c := range buckets {
		seen += c
		if seen > want {
			return time.Duration(BucketUpper(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<LogBuckets) * time.Microsecond
}

// LogHistogram is a lock-free power-of-two latency histogram: 40
// atomic buckets plus a running sum, cheap enough to Observe on the
// serving hot path (one atomic add per field). The zero value is ready
// to use, so it embeds directly into atomic stats blocks.
type LogHistogram struct {
	buckets [LogBuckets]atomic.Uint64
	sumUS   atomic.Uint64
	count   atomic.Uint64
}

// Observe records one duration.
func (h *LogHistogram) Observe(d time.Duration) {
	us := uint64(d.Microseconds())
	h.buckets[BucketOf(us)].Add(1)
	h.sumUS.Add(us)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *LogHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the summed observed duration.
func (h *LogHistogram) Sum() time.Duration {
	return time.Duration(h.sumUS.Load()) * time.Microsecond
}

// Quantile returns the upper bound of the bucket containing the
// q-quantile observation.
func (h *LogHistogram) Quantile(q float64) time.Duration {
	var snap [LogBuckets]uint64
	h.Buckets(&snap)
	return QuantileOf(&snap, q)
}

// Buckets copies the current bucket counts into out.
func (h *LogHistogram) Buckets(out *[LogBuckets]uint64) {
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
}

// Reset zeroes the histogram.
func (h *LogHistogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.sumUS.Store(0)
	h.count.Store(0)
}

// Counter is an owned monotonic counter (one atomic).
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an owned instantaneous value (one atomic).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Labels is a metric's label set, rendered in sorted key order.
type Labels map[string]string

// series is one registered time series: a name plus label set and a
// way to render its sample lines at scrape time.
type series struct {
	name   string
	help   string
	typ    string // counter | gauge | histogram
	labels string // pre-rendered {k="v",...} or ""
	// Exactly one of these is set.
	counter     *Counter
	gauge       *Gauge
	counterFunc func() uint64
	gaugeFunc   func() float64
	hist        *LogHistogram
}

// Registry is a process-wide metric registry. Registration is
// mutex-guarded (it happens at subsystem construction, never on a hot
// path); scraping walks the registered series and reads their atomics.
// Registering a series with the same name and label set as an existing
// one replaces it — re-registration is idempotent, so short-lived
// subsystems (tests, rebuilt engines) never poison the registry.
type Registry struct {
	mu      sync.Mutex
	series  []*series
	scrapes atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultRegistry is the process-wide registry Default returns.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) add(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, old := range r.series {
		if old.name == s.name && old.labels == s.labels {
			r.series[i] = s
			return
		}
	}
	r.series = append(r.series, s)
}

// Unregister removes the series with the given name and label set (a
// no-op when absent). Subsystems with bounded lifetimes (trainers,
// engines in tests) call it from Close so the registry never scrapes
// freed state.
func (r *Registry) Unregister(name string, labels Labels) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.series {
		if s.name == name && s.labels == ls {
			r.series = append(r.series[:i], r.series[i+1:]...)
			return
		}
	}
}

// Counter registers and returns an owned counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.add(&series{name: name, help: help, typ: "counter", labels: renderLabels(labels), counter: c})
	return c
}

// Gauge registers and returns an owned gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.add(&series{name: name, help: help, typ: "gauge", labels: renderLabels(labels), gauge: g})
	return g
}

// CounterFunc registers a scrape-time counter reading fn — the
// zero-overhead bridge for subsystems that already keep atomic
// counters (serve's stats block). fn must be monotonic between resets
// and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.add(&series{name: name, help: help, typ: "counter", labels: renderLabels(labels), counterFunc: fn})
}

// GaugeFunc registers a scrape-time gauge reading fn (pool occupancy,
// queue depth, arena bytes). fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(&series{name: name, help: help, typ: "gauge", labels: renderLabels(labels), gaugeFunc: fn})
}

// Histogram registers an existing LogHistogram for exposition. The
// histogram keeps being observed wherever it lives (serve's latency
// stats); the registry only reads it at scrape time.
func (r *Registry) Histogram(name, help string, labels Labels, h *LogHistogram) {
	r.add(&series{name: name, help: help, typ: "histogram", labels: renderLabels(labels), hist: h})
}

// Scrapes returns how many WritePrometheus walks have begun. A
// subsystem whose scrape-time readers derive several series from one
// costly read keys a cache on it, so the read happens once per scrape.
func (r *Registry) Scrapes() uint64 { return r.scrapes.Load() }

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4): series sharing a name form
// one family with a single HELP/TYPE header; histograms emit
// cumulative le buckets in seconds plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.scrapes.Add(1)
	r.mu.Lock()
	snap := append([]*series(nil), r.series...)
	r.mu.Unlock()

	written := map[string]bool{}
	for _, s := range snap {
		if !written[s.name] {
			written[s.name] = true
			if s.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.typ); err != nil {
				return err
			}
			// Emit the rest of the family right behind its header.
			for _, t := range snap {
				if t.name != s.name {
					continue
				}
				if err := writeSeries(w, t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.counter.Value())
		return err
	case s.counterFunc != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.counterFunc())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.gauge.Value())
		return err
	case s.gaugeFunc != nil:
		_, err := fmt.Fprintf(w, "%s%s %g\n", s.name, s.labels, s.gaugeFunc())
		return err
	case s.hist != nil:
		return writeHistogram(w, s)
	}
	return nil
}

// histLabel splices an extra label pair into a pre-rendered label set.
func histLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func writeHistogram(w io.Writer, s *series) error {
	var buckets [LogBuckets]uint64
	s.hist.Buckets(&buckets)
	var cum uint64
	for i, c := range buckets {
		cum += c
		le := float64(BucketUpper(i)) / 1e6 // seconds
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, histLabel(s.labels, fmt.Sprintf("le=%q", formatFloat(le))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, histLabel(s.labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.name, s.labels, s.hist.Sum().Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, s.hist.Count())
	return err
}

// formatFloat renders a bucket bound compactly ("0.000128", "8.192").
func formatFloat(f float64) string {
	out := fmt.Sprintf("%.9f", f)
	out = strings.TrimRight(out, "0")
	out = strings.TrimRight(out, ".")
	if out == "" {
		out = "0"
	}
	return out
}

// ServeHTTP exposes the registry as a /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
