// Telemetry integration tests: a sampled request must yield a
// well-formed span tree whose op spans came from its own batch run,
// the /metrics endpoint must expose the serve/pool/arena families, and
// enabling tracing must not leak goroutines across engine lifecycles.
package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/telemetry"
)

// traceByName indexes a trace's spans by name, failing on absence.
func spansByName(t *testing.T, spans []telemetry.Span) map[string][]telemetry.Span {
	t.Helper()
	out := map[string][]telemetry.Span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestEngineTraceSpanTree samples every request and checks the span
// tree the ISSUE acceptance demands: request -> admission + queue +
// batch -> run -> per-op spans, no orphan parent IDs, and op spans on
// worker lanes.
func TestEngineTraceSpanTree(t *testing.T) {
	tc := telemetry.NewTraceCollector(1, 16)
	m := buildModel(t, "memnet", 2)
	e, err := New(m, Options{
		Sessions: 1, MaxBatch: 2, MaxDelay: time.Millisecond,
		InterOpWorkers: 2, IntraOpWorkers: 1, Trace: tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	examples := sampleExamples(t, m, 3)
	for _, ex := range examples {
		if _, err := e.Infer(context.Background(), ex); err != nil {
			t.Fatal(err)
		}
	}
	traces := tc.Drain()
	if len(traces) != len(examples) {
		t.Fatalf("sampled %d traces at every=1 for %d requests", len(traces), len(examples))
	}
	for _, tr := range traces {
		spans := tr.Spans()
		byID := map[telemetry.SpanID]telemetry.Span{}
		for _, s := range spans {
			if s.ID == 0 {
				t.Fatalf("trace %d: span %q with zero ID", tr.ID, s.Name)
			}
			byID[s.ID] = s
		}
		var roots int
		for _, s := range spans {
			if s.Parent == 0 {
				roots++
				if s.Name != "request" {
					t.Errorf("trace %d: root span named %q, want request", tr.ID, s.Name)
				}
				continue
			}
			if _, ok := byID[s.Parent]; !ok {
				t.Errorf("trace %d: span %q has orphan parent %d", tr.ID, s.Name, s.Parent)
			}
		}
		if roots != 1 {
			t.Errorf("trace %d: %d roots, want 1", tr.ID, roots)
		}
		names := spansByName(t, spans)
		for _, want := range []string{"request", "admission", "queue", "batch", "run"} {
			if len(names[want]) == 0 {
				t.Errorf("trace %d: no %q span (have %v)", tr.ID, want, keys(names))
			}
		}
		if len(names["run"]) == 0 {
			continue
		}
		run := names["run"][0]
		// Every op span must be a direct child of this request's run
		// span, on a worker lane.
		ops := 0
		for _, s := range spans {
			if s.Parent == run.ID && s.Lane >= 1 {
				ops++
			}
		}
		if ops == 0 {
			t.Errorf("trace %d: run span has no op children", tr.ID)
		}
	}
}

func keys(m map[string][]telemetry.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestServerTelemetryEndpoints drives /metrics and /debug/trace over
// HTTP: after real traffic the exposition must cover the serve, pool
// and arena families with the model label, and the trace endpoint must
// return a one-shot Chrome-trace document.
func TestServerTelemetryEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	tc := telemetry.NewTraceCollector(1, 16)
	m := buildModel(t, "memnet", 2)
	e, err := New(m, Options{MaxBatch: 2, MaxDelay: time.Millisecond, Trace: tc})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer e.UnregisterMetrics(reg)
	srv := NewServer()
	srv.Register(e)
	srv.EnableTelemetry(reg, tc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ex := sampleExamples(t, m, 1)[0]
	body, _ := json.Marshal(inferRequest{Inputs: map[string]jsonTensor{
		"stories": toJSONTensor(ex["stories"]), "query": toJSONTensor(ex["query"]),
	}})
	resp, err := http.Post(ts.URL+"/v1/models/memnet:infer", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status %d", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text, _ := io.ReadAll(mr.Body)
	for _, want := range []string{
		`fathom_serve_requests_total{model="memnet"} 1`,
		`fathom_serve_latency_seconds_count{lane="interactive",model="memnet"} 1`,
		`fathom_serve_queue_wait_seconds_count{model="memnet"} 1`,
		"fathom_pool_size",
		`fathom_arena_bytes{model="memnet"}`,
		"# TYPE fathom_serve_latency_seconds histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /stats carries the arena block satellite.
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats map[string]map[string]any
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["memnet"]["arena_bytes"]; !ok {
		t.Errorf("/stats missing arena_bytes: %v", stats["memnet"])
	}
	// The engine runs compiled plans, whose sharing of slab floats must
	// show: the slab is smaller than its plan's slots laid end to end.
	bytes, _ := stats["memnet"]["arena_bytes"].(float64)
	slotBytes, _ := stats["memnet"]["arena_slot_bytes"].(float64)
	if r, _ := stats["memnet"]["arena_reuse_ratio"].(float64); r <= 0 || r >= 1 || r != 1-bytes/slotBytes {
		t.Errorf("/stats arena_reuse_ratio = %v, want 1 − arena_bytes/arena_slot_bytes = 1 − %v/%v in (0,1)", r, bytes, slotBytes)
	}
	if _, ok := stats["memnet"]["queue_wait_p99_ns"]; !ok {
		t.Errorf("/stats missing queue_wait_p99_ns: %v", stats["memnet"])
	}

	// /debug/trace drains the ring exactly once.
	tr, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/trace is not Chrome-trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/debug/trace returned no events for a sampled request")
	}
	if tc.Len() != 0 {
		t.Errorf("collector still holds %d traces after drain", tc.Len())
	}
}

// TestEngineTracingShutdownReleasesGoroutines extends the leak gate to
// the trace path: engines with sampling enabled must wind down to the
// same baseline as untraced ones, with every sampled trace finished.
func TestEngineTracingShutdownReleasesGoroutines(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	base := goruntime.NumGoroutine()
	for round := 0; round < 3; round++ {
		tc := telemetry.NewTraceCollector(1, 8)
		m := buildModel(t, "memnet", 2)
		e, err := New(m, Options{
			Sessions: 2, MaxBatch: 2, MaxDelay: 200 * time.Microsecond,
			InterOpWorkers: 2, Trace: tc, WorkerPool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		examples := sampleExamples(t, m, 4)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if _, err := e.Infer(context.Background(), examples[c]); err != nil {
					t.Error(err)
				}
			}(c)
		}
		wg.Wait()
		e.Close()
		if got := tc.Len(); got != 4 {
			t.Errorf("round %d: %d finished traces, want 4", round, got)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for goruntime.NumGoroutine() > base+pool.Size()+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > base+pool.Size()+1 {
		t.Fatalf("goroutines %d after 3 traced engine lifecycles (baseline %d, pool %d): leak",
			got, base, pool.Size())
	}
}
