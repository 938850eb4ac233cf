// The metrics tests pin the exposition contract: what the registry
// writes must be parseable Prometheus 0.0.4 text, every registered
// family must appear exactly once with its header, counters must read
// monotonic across scrapes, and histogram bucket lines must be
// cumulative with +Inf equal to _count.
package telemetry

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels string // raw {...} including braces, "" when unlabeled
	value  float64
}

// parsePrometheus is a deliberately strict parser for the exposition
// subset the registry emits. It fails the test on any line that is not
// a valid comment, header, or sample — a format-validity check and a
// value extractor in one.
func parsePrometheus(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = map[string]string{}
	help := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if help[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			help[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, fields[1])
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s (family split across the output)", ln+1, fields[0])
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		// Sample: name[{labels}] value
		rest := line
		var name, labels string
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced labels: %q", ln+1, line)
			}
			labels = rest[i : j+1]
			rest = strings.TrimSpace(rest[j+1:])
		} else {
			var ok bool
			name, rest, ok = strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: no value: %q", ln+1, line)
			}
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		samples = append(samples, promSample{name: name, labels: labels, value: v})
	}
	return samples, types
}

// find returns the single sample with the given name and label
// substring, failing the test when absent.
func find(t *testing.T, samples []promSample, name, labelSub string) promSample {
	t.Helper()
	for _, s := range samples {
		if s.name == name && strings.Contains(s.labels, labelSub) {
			return s
		}
	}
	t.Fatalf("no sample %s with labels containing %q", name, labelSub)
	return promSample{}
}

func scrape(r *Registry) string {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// TestPrometheusRoundtrip registers one series of every kind, scrapes,
// and re-parses: the output must be valid text format with every
// family present under the right type, labels sorted, and values
// matching what was recorded.
func TestPrometheusRoundtrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests", Labels{"model": "memnet", "a": "b"})
	c.Add(7)
	g := r.Gauge("test_depth", "queue depth", nil)
	g.Set(-3)
	r.CounterFunc("test_func_total", "func counter", Labels{"x": "y"}, func() uint64 { return 42 })
	r.GaugeFunc("test_ratio", "func gauge", nil, func() float64 { return 0.5 })
	h := &LogHistogram{}
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	r.Histogram("test_latency_seconds", "latency", Labels{"lane": "interactive"}, h)

	samples, types := parsePrometheus(t, scrape(r))

	for name, want := range map[string]string{
		"test_requests_total":  "counter",
		"test_depth":           "gauge",
		"test_func_total":      "counter",
		"test_ratio":           "gauge",
		"test_latency_seconds": "histogram",
	} {
		if got := types[name]; got != want {
			t.Errorf("TYPE %s = %q, want %q", name, got, want)
		}
	}
	// Labels render in sorted key order.
	cs := find(t, samples, "test_requests_total", `model="memnet"`)
	if cs.labels != `{a="b",model="memnet"}` {
		t.Errorf("labels not sorted: %q", cs.labels)
	}
	if cs.value != 7 {
		t.Errorf("counter = %v, want 7", cs.value)
	}
	if v := find(t, samples, "test_depth", "").value; v != -3 {
		t.Errorf("gauge = %v, want -3", v)
	}
	if v := find(t, samples, "test_func_total", `x="y"`).value; v != 42 {
		t.Errorf("counter func = %v, want 42", v)
	}
	if v := find(t, samples, "test_ratio", "").value; v != 0.5 {
		t.Errorf("gauge func = %v, want 0.5", v)
	}
	if v := find(t, samples, "test_latency_seconds_count", `lane="interactive"`).value; v != 3 {
		t.Errorf("hist count = %v, want 3", v)
	}
}

// TestHistogramCumulative checks the histogram exposition invariants:
// bucket values are non-decreasing in le order, the +Inf bucket equals
// _count, and _sum matches the observed total.
func TestHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := &LogHistogram{}
	for _, d := range []time.Duration{
		10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond,
	} {
		h.Observe(d)
	}
	r.Histogram("cum_seconds", "", nil, h)
	samples, _ := parsePrometheus(t, scrape(r))

	var prev float64
	var infVal, count, sum float64
	buckets := 0
	for _, s := range samples {
		switch s.name {
		case "cum_seconds_bucket":
			if s.value < prev {
				t.Fatalf("bucket %s value %v < previous %v: not cumulative", s.labels, s.value, prev)
			}
			prev = s.value
			buckets++
			if strings.Contains(s.labels, "+Inf") {
				infVal = s.value
			}
		case "cum_seconds_count":
			count = s.value
		case "cum_seconds_sum":
			sum = s.value
		}
	}
	if buckets != LogBuckets+1 {
		t.Errorf("emitted %d bucket lines, want %d", buckets, LogBuckets+1)
	}
	if infVal != 5 || count != 5 {
		t.Errorf("+Inf bucket %v and _count %v must both be 5", infVal, count)
	}
	wantSum := (10*time.Microsecond + 100*time.Microsecond + time.Millisecond + 20*time.Millisecond).Seconds()
	if diff := sum - wantSum; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("_sum = %v, want %v", sum, wantSum)
	}
}

// TestCountersMonotonicAcrossScrapes is the golden trajectory check:
// scraping twice with traffic in between must never show a counter
// going backwards.
func TestCountersMonotonicAcrossScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono_total", "", nil)
	var fn uint64
	r.CounterFunc("mono_func_total", "", nil, func() uint64 { return fn })

	c.Add(3)
	fn = 10
	first, _ := parsePrometheus(t, scrape(r))
	c.Add(5)
	fn = 25
	second, _ := parsePrometheus(t, scrape(r))

	for _, name := range []string{"mono_total", "mono_func_total"} {
		a := find(t, first, name, "").value
		b := find(t, second, name, "").value
		if b < a {
			t.Errorf("%s went backwards: %v then %v", name, a, b)
		}
	}
	if v := find(t, second, "mono_total", "").value; v != 8 {
		t.Errorf("mono_total = %v, want 8", v)
	}
	if n := r.Scrapes(); n != 2 {
		t.Errorf("Scrapes() = %d after two scrapes", n)
	}
}

// TestRegistryReplaceAndUnregister pins the idempotent-registration
// contract: same name+labels replaces (rebuilt engines don't stack
// stale series), different labels coexist, and Unregister removes
// exactly one series.
func TestRegistryReplaceAndUnregister(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("re_total", "", Labels{"m": "a"}, func() uint64 { return 1 })
	r.CounterFunc("re_total", "", Labels{"m": "b"}, func() uint64 { return 2 })
	r.CounterFunc("re_total", "", Labels{"m": "a"}, func() uint64 { return 11 })

	samples, _ := parsePrometheus(t, scrape(r))
	var n int
	for _, s := range samples {
		if s.name == "re_total" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("%d re_total series after replacement, want 2", n)
	}
	if v := find(t, samples, "re_total", `m="a"`).value; v != 11 {
		t.Errorf("replaced series reads %v, want 11", v)
	}

	r.Unregister("re_total", Labels{"m": "a"})
	samples, _ = parsePrometheus(t, scrape(r))
	for _, s := range samples {
		if s.name == "re_total" && strings.Contains(s.labels, `m="a"`) {
			t.Fatalf("unregistered series still scraped: %v", s)
		}
	}
	find(t, samples, "re_total", `m="b"`) // the sibling survives
}

// TestServeHTTPContentType checks the /metrics handler speaks the
// exposition content type.
func TestServeHTTPContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("ct_total", "", nil).Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want 0.0.4 exposition", got)
	}
	if !strings.Contains(rec.Body.String(), "ct_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

// TestQuantileOf pins the bucket-upper-bound quantile convention both
// histogram consumers (serve stats, loadgen wait deltas) rely on.
func TestQuantileOf(t *testing.T) {
	var b [LogBuckets]uint64
	if got := QuantileOf(&b, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h := &LogHistogram{}
	for i := 0; i < 99; i++ {
		h.Observe(50 * time.Microsecond) // bucket [32,64)us -> upper 64us
	}
	h.Observe(80 * time.Millisecond)
	if got := h.Quantile(0.50); got != 64*time.Microsecond {
		t.Errorf("p50 = %v, want 64µs", got)
	}
	if got := h.Quantile(0.999); got <= 64*time.Microsecond {
		t.Errorf("p999 = %v, want the outlier's bucket", got)
	}
}
