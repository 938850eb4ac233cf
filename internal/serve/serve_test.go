// Package serve's tests pin the concurrency contract: pooled
// micro-batched inference must return exactly what sequential
// single-session inference returns, batching must respect
// MaxBatch/MaxDelay, and cancellation must return promptly. Run with
// -race: these tests are the suite's concurrency safety net.
package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"encoding/json"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/tensor"

	_ "repro/internal/models/all"
)

// buildModel constructs a Setup workload at the tiny preset with the
// graph's batch axis widened to batch.
func buildModel(t testing.TB, name string, batch int) core.Model {
	t.Helper()
	m, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Setup(core.Config{Preset: core.PresetTiny, Seed: 3, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	return m
}

// sampleExamples draws n single-example input sets from the
// workload's synthetic dataset by splitting sampled batches.
func sampleExamples(t testing.TB, m core.Model, n int) []map[string]*tensor.Tensor {
	t.Helper()
	sig := m.Signature(core.ModeInference)
	smp, ok := m.(core.Sampler)
	if !ok {
		t.Fatalf("%s is not a Sampler", m.Name())
	}
	var out []map[string]*tensor.Tensor
	for len(out) < n {
		batch := smp.Sample()
		for i := 0; i < sig.BatchCapacity() && len(out) < n; i++ {
			ex := map[string]*tensor.Tensor{}
			for _, in := range sig.Inputs {
				ex[in.Name] = getExample(batch[in.Name], in.BatchDim, i)
			}
			out = append(out, ex)
		}
	}
	return out
}

// referenceInfer runs one example through a single session the
// sequential way: packed alone into a zero-padded batch, exactly as
// the engine packs a fill-1 micro-batch.
func referenceInfer(t testing.TB, m core.Model, s *runtime.Session, ex map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	t.Helper()
	sig := m.Signature(core.ModeInference)
	feeds := map[string]*tensor.Tensor{}
	for _, in := range sig.Inputs {
		packed := tensor.New(in.Shape()...)
		putExample(packed, in.BatchDim, 0, ex[in.Name])
		feeds[in.Name] = packed
	}
	outs, err := m.(core.Inferencer).Infer(s, feeds)
	if err != nil {
		t.Fatal(err)
	}
	result := map[string]*tensor.Tensor{}
	for _, out := range sig.Outputs {
		if out.BatchDim == core.BatchNone {
			continue
		}
		result[out.Name] = getExample(outs[out.Name], out.BatchDim, 0)
	}
	return result
}

func tensorsEqual(a, b *tensor.Tensor) bool {
	if !tensor.SameShape(a.Shape(), b.Shape()) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

// TestEngineMatchesSequential is the correctness contract: N
// concurrent clients against a pooled, micro-batched engine get
// bit-identical results to sequential single-session inference.
// (alexnet and memnet are example-independent graphs, so batch
// composition and padding cannot perturb a request's rows.)
func TestEngineMatchesSequential(t *testing.T) {
	for _, name := range []string{"alexnet", "memnet"} {
		name := name
		t.Run(name, func(t *testing.T) {
			const clients, perClient = 8, 3
			m := buildModel(t, name, 4)
			examples := sampleExamples(t, m, clients*perClient)

			// Sequential reference on an independent session.
			ref := runtime.NewSession(m.Graph(), runtime.WithSeed(99))
			want := make([]map[string]*tensor.Tensor, len(examples))
			for i, ex := range examples {
				want[i] = referenceInfer(t, m, ref, ex)
			}

			e, err := New(m, Options{Sessions: 2, MaxBatch: 4, MaxDelay: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			got := make([]map[string]*tensor.Tensor, len(examples))
			errs := make([]error, len(examples))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k := 0; k < perClient; k++ {
						i := c*perClient + k
						got[i], errs[i] = e.Infer(context.Background(), examples[i])
					}
				}(c)
			}
			wg.Wait()
			for i := range examples {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				for outName, w := range want[i] {
					g, ok := got[i][outName]
					if !ok {
						t.Fatalf("request %d missing output %q", i, outName)
					}
					if !tensorsEqual(w, g) {
						t.Fatalf("request %d output %q differs from sequential inference", i, outName)
					}
				}
			}
			if s := e.Stats(); s.Requests != clients*perClient {
				t.Fatalf("stats requests = %d, want %d", s.Requests, clients*perClient)
			}
		})
	}
}

// TestEngineBatchingRespectsMaxBatch checks coalescing: concurrent
// requests fill micro-batches above 1 but never above MaxBatch.
func TestEngineBatchingRespectsMaxBatch(t *testing.T) {
	m := buildModel(t, "memnet", 8)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 4, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.MaxBatch() != 4 {
		t.Fatalf("MaxBatch = %d, want 4", e.MaxBatch())
	}

	const n = 16
	examples := sampleExamples(t, m, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Infer(context.Background(), examples[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s := e.Stats()
	if s.Requests != n {
		t.Fatalf("requests = %d, want %d", s.Requests, n)
	}
	if s.MaxBatchFill > 4 {
		t.Fatalf("a batch exceeded MaxBatch: fill %d", s.MaxBatchFill)
	}
	if s.MeanBatchFill <= 1 {
		t.Fatalf("16 concurrent clients should coalesce: mean fill %.2f", s.MeanBatchFill)
	}
	if s.Batches < n/4 {
		t.Fatalf("batches = %d, want >= %d", s.Batches, n/4)
	}
}

// TestEngineStatsPoolGauges: /stats carries the shared pool's
// busy/spawned gauges and the engine's lease claim, sized sessions ×
// (inter-op × intra-op − 1) — the load-shedding signals.
func TestEngineStatsPoolGauges(t *testing.T) {
	pool := sched.New(3)
	defer pool.Close()
	m := buildModel(t, "memnet", 4)
	e, err := New(m, Options{Sessions: 2, InterOpWorkers: 2, IntraOpWorkers: 2, WorkerPool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.Stats()
	if s.PoolSize != 3 {
		t.Fatalf("PoolSize = %d, want 3", s.PoolSize)
	}
	if want := 2 * (2*2 - 1); s.LeaseClaim != want {
		t.Fatalf("LeaseClaim = %d, want %d", s.LeaseClaim, want)
	}
	if s.PoolBusy < 0 || s.PoolBusy > s.PoolSize || s.PoolSpawned < 0 || s.PoolSpawned > s.PoolSize {
		t.Fatalf("pool gauges out of range: busy %d spawned %d size %d", s.PoolBusy, s.PoolSpawned, s.PoolSize)
	}
	if !strings.Contains(s.String(), "pool(busy=") {
		t.Fatalf("Stats.String misses pool gauges: %s", s)
	}
}

// TestEngineMaxDelayFlushesPartialBatch: a lone request must not wait
// for a full batch.
func TestEngineMaxDelayFlushesPartialBatch(t *testing.T) {
	m := buildModel(t, "memnet", 8)
	e, err := New(m, Options{MaxBatch: 8, MaxDelay: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ex := sampleExamples(t, m, 1)[0]
	start := time.Now()
	if _, err := e.Infer(context.Background(), ex); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("partial batch took %v; MaxDelay flush is broken", d)
	}
	if s := e.Stats(); s.MaxBatchFill != 1 {
		t.Fatalf("fill = %d, want 1", s.MaxBatchFill)
	}
}

// TestEngineCancellation: a context cancelled while the request sits
// in the batching window must return promptly, not after MaxDelay.
func TestEngineCancellation(t *testing.T) {
	m := buildModel(t, "memnet", 8)
	e, err := New(m, Options{MaxBatch: 8, MaxDelay: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ex := sampleExamples(t, m, 1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Infer(ctx, ex)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v; must be prompt", d)
	}
}

// TestEngineCloseFailsPending: Close fails queued requests with
// ErrClosed and Infer afterwards refuses immediately.
func TestEngineCloseFailsPending(t *testing.T) {
	m := buildModel(t, "memnet", 2)
	e, err := New(m, Options{MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Infer(context.Background(), sampleExamples(t, m, 1)[0]); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestEngineRefusesBatchCoupledCoalescing: residual's primitive batch
// normalization couples examples, so the engine must refuse to serve
// it with a batch capacity above 1 (results would depend on batch
// composition) but accept the unbatched configuration.
func TestEngineRefusesBatchCoupledCoalescing(t *testing.T) {
	m := buildModel(t, "residual", 4)
	if _, err := New(m, Options{MaxBatch: 4}); err == nil {
		t.Fatal("batch-coupled workload at capacity 4 must be refused")
	}
	m1 := buildModel(t, "residual", 1)
	e, err := New(m1, Options{})
	if err != nil {
		t.Fatalf("unbatched batch-coupled serving must work: %v", err)
	}
	defer e.Close()
	ex := sampleExamples(t, m1, 1)[0]
	if _, err := e.Infer(context.Background(), ex); err != nil {
		t.Fatal(err)
	}
}

// TestEngineValidatesInputs: request-shape errors surface before
// anything is enqueued.
func TestEngineValidatesInputs(t *testing.T) {
	m := buildModel(t, "alexnet", 2)
	e, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.Infer(ctx, map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("missing input must error")
	}
	if _, err := e.Infer(ctx, map[string]*tensor.Tensor{"images": nil}); err == nil {
		t.Fatal("nil input must error, not panic")
	}
	if _, err := e.Infer(ctx, map[string]*tensor.Tensor{"images": tensor.New(3, 3, 3)}); err == nil {
		t.Fatal("wrong shape must error")
	}
	ex := sampleExamples(t, m, 1)[0]
	ex["bogus"] = tensor.New(1)
	if _, err := e.Infer(ctx, ex); err == nil {
		t.Fatal("unknown input must error")
	}
}

// TestExamplePackRoundTrip pins the strided pack/unpack helpers on a
// non-leading batch axis.
func TestExamplePackRoundTrip(t *testing.T) {
	src := tensor.New(3, 4, 2) // batch axis 1
	for i := range src.Data() {
		src.Data()[i] = float32(i)
	}
	for i := 0; i < 4; i++ {
		ex := getExample(src, 1, i)
		if !tensor.SameShape(ex.Shape(), []int{3, 2}) {
			t.Fatalf("example shape = %v", ex.Shape())
		}
		dst := tensor.New(3, 4, 2)
		putExample(dst, 1, i, ex)
		for o := 0; o < 3; o++ {
			for k := 0; k < 2; k++ {
				if dst.At(o, i, k) != src.At(o, i, k) {
					t.Fatalf("roundtrip mismatch at (%d,%d,%d)", o, i, k)
				}
			}
		}
	}
}

// TestHTTPServer drives the JSON API end to end: discovery, health,
// inference, stats.
func TestHTTPServer(t *testing.T) {
	m := buildModel(t, "alexnet", 2)
	e, err := New(m, Options{MaxBatch: 2, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := NewServer()
	srv.Register(e)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || len(health.Models) != 1 || health.Models[0] != "alexnet" {
		t.Fatalf("healthz = %+v", health)
	}

	var mj modelJSON
	getJSON(t, ts.URL+"/v1/models/alexnet", &mj)
	if mj.Name != "alexnet" || len(mj.Inputs) != 1 || mj.Inputs[0].Name != "images" {
		t.Fatalf("model json = %+v", mj)
	}

	ex := sampleExamples(t, m, 1)[0]
	body, _ := json.Marshal(inferRequest{Inputs: map[string]jsonTensor{
		"images": toJSONTensor(ex["images"]),
	}})
	resp, err := http.Post(ts.URL+"/v1/models/alexnet:infer", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer status = %d", resp.StatusCode)
	}
	var ir inferResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	probs, ok := ir.Outputs["probs"]
	if !ok {
		t.Fatalf("no probs in %v", ir.Outputs)
	}
	var sum float32
	for _, v := range probs.Data {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("probs must sum to 1, got %v", sum)
	}

	var stats map[string]Stats
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["alexnet"].Requests != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	// Error paths.
	r1, err := http.Get(ts.URL + "/v1/models/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model status = %d", r1.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/models/alexnet:infer", "application/json",
		strings.NewReader(`{"inputs":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty inputs status = %d", r2.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestEngineInterOpWorkersMatchesSequential: the engine's inter-op
// scheduling knob composes with pooling and micro-batching without
// perturbing results — Infer through inter-op-4 worker sessions is
// bit-identical to sequential single-session inference.
func TestEngineInterOpWorkersMatchesSequential(t *testing.T) {
	const clients, perClient = 6, 3
	m := buildModel(t, "memnet", 4)
	examples := sampleExamples(t, m, clients*perClient)

	ref := runtime.NewSession(m.Graph(), runtime.WithSeed(99))
	want := make([]map[string]*tensor.Tensor, len(examples))
	for i, ex := range examples {
		want[i] = referenceInfer(t, m, ref, ex)
	}

	e, err := New(m, Options{Sessions: 2, MaxBatch: 4, MaxDelay: time.Millisecond, InterOpWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	got := make([]map[string]*tensor.Tensor, len(examples))
	errs := make([]error, len(examples))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := c*perClient + k
				got[i], errs[i] = e.Infer(context.Background(), examples[i])
			}
		}(c)
	}
	wg.Wait()
	for i := range examples {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for outName, w := range want[i] {
			if !tensorsEqual(w, got[i][outName]) {
				t.Fatalf("request %d output %q differs under inter-op workers", i, outName)
			}
		}
	}
}

// TestEngineIntraOpWorkersMatchesSequential: real intra-op kernel
// parallelism on the shared pool composes with pooling, micro-batching
// and inter-op scheduling without perturbing a single bit.
func TestEngineIntraOpWorkersMatchesSequential(t *testing.T) {
	const clients, perClient = 6, 3
	m := buildModel(t, "memnet", 4)
	examples := sampleExamples(t, m, clients*perClient)

	ref := runtime.NewSession(m.Graph(), runtime.WithSeed(99))
	want := make([]map[string]*tensor.Tensor, len(examples))
	for i, ex := range examples {
		want[i] = referenceInfer(t, m, ref, ex)
	}

	pool := sched.New(3)
	defer pool.Close()
	e, err := New(m, Options{
		Sessions: 2, MaxBatch: 4, MaxDelay: time.Millisecond,
		InterOpWorkers: 2, IntraOpWorkers: 4, WorkerPool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	got := make([]map[string]*tensor.Tensor, len(examples))
	errs := make([]error, len(examples))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := c*perClient + k
				got[i], errs[i] = e.Infer(context.Background(), examples[i])
			}
		}(c)
	}
	wg.Wait()
	for i := range examples {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for outName, w := range want[i] {
			if !tensorsEqual(got[i][outName], w) {
				t.Fatalf("request %d output %q differs from sequential reference", i, outName)
			}
		}
	}
}

// TestManyEnginesOneSharedPool hammers one bounded pool from several
// engines' worth of parallel sessions at once — the race detector
// checks every handoff, and the pool must bound execution goroutines
// across all engines combined.
func TestManyEnginesOneSharedPool(t *testing.T) {
	pool := sched.New(3)
	defer pool.Close()
	const engines = 3
	var es []*Engine
	var exs [][]map[string]*tensor.Tensor
	for i := 0; i < engines; i++ {
		m := buildModel(t, "memnet", 4)
		e, err := New(m, Options{
			Sessions: 2, MaxBatch: 4, MaxDelay: 500 * time.Microsecond,
			InterOpWorkers: 2, IntraOpWorkers: 2, WorkerPool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		es = append(es, e)
		exs = append(exs, sampleExamples(t, m, 8))
	}
	var wg sync.WaitGroup
	for i, e := range es {
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(e *Engine, examples []map[string]*tensor.Tensor) {
				defer wg.Done()
				for r := 0; r < 6; r++ {
					if _, err := e.Infer(context.Background(), examples[r%len(examples)]); err != nil {
						t.Error(err)
						return
					}
				}
			}(e, exs[i])
		}
	}
	wg.Wait()
	if pool.Spawned() > pool.Size() {
		t.Fatalf("pool spawned %d workers, size %d", pool.Spawned(), pool.Size())
	}
	for _, e := range es {
		e.Close()
	}
}

// TestEngineShutdownReleasesGoroutines is the leak check: engine
// workers, dispatcher and session leases all wind down on Close, and
// the only persistent goroutines left are the shared pool's bounded
// workers.
func TestEngineShutdownReleasesGoroutines(t *testing.T) {
	pool := sched.New(2)
	defer pool.Close()
	base := goruntime.NumGoroutine()
	for round := 0; round < 3; round++ {
		m := buildModel(t, "memnet", 2)
		e, err := New(m, Options{
			Sessions: 3, MaxBatch: 2, MaxDelay: 200 * time.Microsecond,
			InterOpWorkers: 2, IntraOpWorkers: 2, WorkerPool: pool,
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
	}
	// Everything engine-owned is gone; at most the pool's persistent
	// workers (plus test-runtime slack) remain.
	deadline := time.Now().Add(3 * time.Second)
	for goruntime.NumGoroutine() > base+pool.Size()+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > base+pool.Size()+1 {
		t.Fatalf("goroutines %d after 3 engine lifecycles (baseline %d, pool %d): leak",
			got, base, pool.Size())
	}
}

// TestEngineLadder: a batch-8 graph served at MaxBatch 8 gets rungs at
// 1, 2 and 4 beside itself, each fill runs on the smallest rung that
// holds it, and PaddedRows counts the zero rows that leaves.
func TestEngineLadder(t *testing.T) {
	m := buildModel(t, "memnet", 8)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var sizes []int
	for _, r := range e.rungs {
		sizes = append(sizes, r.size)
	}
	if want := []int{1, 2, 4, 8}; !slices.Equal(sizes, want) {
		t.Fatalf("rungs %v, want %v", sizes, want)
	}
	if e.rungs[3].sig.Inputs[0].Node != e.sig.Inputs[0].Node {
		t.Fatal("the top rung must be the served graph itself")
	}
	ws := newWorkerState(e, runtime.NewSession(m.Graph()))
	defer ws.sess.Close()
	examples := sampleExamples(t, m, 8)
	var padded int
	for fill, want := range map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8} {
		live := make([]*request, fill)
		for i := range live {
			live[i] = &request{inputs: examples[i], resp: make(chan response, 1)}
		}
		ri := e.load(ws, live)
		if got := e.rungs[ri].size; got != want {
			t.Errorf("fill %d ran on rung %d, want %d", fill, got, want)
		}
		vals, err := e.run(ws, ri, live, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		e.unpack(ri, live, vals)
		padded += want - fill
	}
	if s := e.Stats(); s.PaddedRows != uint64(padded) || s.Batches != 6 {
		t.Fatalf("padded rows %d over %d batches, want %d over 6", s.PaddedRows, s.Batches, padded)
	}
	// MaxBatch below the capacity tops the ladder at MaxBatch: a fill of
	// 3 at MaxBatch 4 runs 4 rows, not 8, and MaxBatch 1 runs one.
	for maxBatch, want := range map[int][]int{4: {1, 2, 4}, 1: {1}} {
		e, err := New(m, Options{Sessions: 1, MaxBatch: maxBatch})
		if err != nil {
			t.Fatal(err)
		}
		sizes = sizes[:0]
		for _, r := range e.rungs {
			sizes = append(sizes, r.size)
		}
		if !slices.Equal(sizes, want) {
			t.Errorf("MaxBatch %d: rungs %v, want %v", maxBatch, sizes, want)
		}
		ws := newWorkerState(e, runtime.NewSession(m.Graph()))
		fill := min(3, maxBatch)
		live := make([]*request, fill)
		for i := range live {
			live[i] = &request{inputs: examples[i], resp: make(chan response, 1)}
		}
		ri := e.load(ws, live)
		vals, err := e.run(ws, ri, live, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		e.unpack(ri, live, vals)
		if got, want := e.Stats().PaddedRows, uint64(maxBatch-fill); got != want {
			t.Errorf("MaxBatch %d: a fill of %d padded %d rows, want %d", maxBatch, fill, got, want)
		}
		ws.sess.Close()
		e.Close()
	}
}

// TestEngineRungsShareVariables: the rungs read the served model's
// variables, so a SetValue after New — a checkpoint load, say — moves
// the answers of the rung-1 and the capacity graph alike, and they stay
// bit-equal.
func TestEngineRungsShareVariables(t *testing.T) {
	m := buildModel(t, "memnet", 4)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ws := newWorkerState(e, runtime.NewSession(m.Graph()))
	defer ws.sess.Close()
	examples := sampleExamples(t, m, 4)
	// rowOnRung answers examples[:fill] on the rung load picks and
	// returns example 0's probabilities.
	rowOnRung := func(fill, wantRung int) *tensor.Tensor {
		t.Helper()
		live := make([]*request, fill)
		for i := range live {
			live[i] = &request{inputs: examples[i]}
		}
		ri := e.load(ws, live)
		if ri != wantRung {
			t.Fatalf("fill %d ran on rung %d, want %d", fill, ri, wantRung)
		}
		vals, err := e.run(ws, ri, live, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return getExample(vals[0], e.sig.Outputs[0].BatchDim, 0)
	}
	top := len(e.rungs) - 1
	before1, beforeCap := rowOnRung(1, 0), rowOnRung(4, top)
	if !tensorsEqual(before1, beforeCap) {
		t.Fatal("rung 1 and capacity disagree before SetValue")
	}
	var w *graph.Node
	for _, v := range m.Graph().Variables() {
		if v.Name() == "W" {
			w = v
		}
	}
	scaled := w.Value().Clone()
	for i, x := range scaled.Data() {
		scaled.Data()[i] = 2*x + 0.5
	}
	w.SetValue(scaled)
	after1, afterCap := rowOnRung(1, 0), rowOnRung(4, top)
	if tensorsEqual(after1, before1) || tensorsEqual(afterCap, beforeCap) {
		t.Fatal("SetValue on the served model did not reach every rung")
	}
	if !tensorsEqual(after1, afterCap) {
		t.Fatal("rung 1 and capacity disagree after SetValue")
	}
	got, err := e.Infer(context.Background(), examples[0])
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsEqual(got["probs"], after1) {
		t.Fatal("the engine's own workers did not see the SetValue")
	}
}

// TestEngineLadderHoldsOneSlab: a worker session that has run rungs
// 1/2/4/8 holds one slab, sized to the largest rung's plan rather than
// the sum of the rungs', and a rung compiled before the slab last grew
// still answers bit for bit as before.
func TestEngineLadderHoldsOneSlab(t *testing.T) {
	m := buildModel(t, "memnet", 8)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	examples := sampleExamples(t, m, 8)
	// runRung answers examples[:fill] on ws and returns example 0's
	// output.
	runRung := func(ws *workerState, fill int) *tensor.Tensor {
		t.Helper()
		live := make([]*request, fill)
		for i := range live {
			live[i] = &request{inputs: examples[i]}
		}
		ri := e.load(ws, live)
		vals, err := e.run(ws, ri, live, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return getExample(vals[0], e.sig.Outputs[0].BatchDim, 0)
	}
	ws := newWorkerState(e, runtime.NewSession(m.Graph()))
	defer ws.sess.Close()
	var first *tensor.Tensor
	var largest, sum int64
	for _, r := range e.rungs {
		out := runRung(ws, r.size)
		if first == nil {
			first = out
		}
		alone := newWorkerState(e, runtime.NewSession(m.Graph()))
		runRung(alone, r.size)
		b := alone.sess.Arena().Stats().TotalBytes
		alone.sess.Close()
		largest, sum = max(largest, b), sum+b
	}
	if got := ws.sess.Arena().Stats().TotalBytes; got != largest || largest >= sum {
		t.Fatalf("the session holds %d slab bytes after rungs 1/2/4/8; the largest rung's plan needs %d, the rungs together %d", got, largest, sum)
	}
	if !tensorsEqual(runRung(ws, 1), first) {
		t.Fatal("rung 1 answers differently after the slab grew under it")
	}
}

// TestEngineIsolatesFailingRequest: a request whose values fail the
// run — a word index past memnet's vocabulary, which Gather refuses —
// fails alone. Its three batch-mates, dispatched with it as one batch,
// are served their solo answers bit for bit, and each call is counted
// once.
func TestEngineIsolatesFailingRequest(t *testing.T) {
	m := buildModel(t, "memnet", 4)
	examples := sampleExamples(t, m, 4)
	bad := map[string]*tensor.Tensor{"stories": examples[3]["stories"].Clone(), "query": examples[3]["query"]}
	bad["stories"].Data()[0] = 1e6

	solo, err := New(m, Options{Sessions: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]*tensor.Tensor, 3)
	for i := range want {
		if want[i], err = solo.Infer(context.Background(), examples[i]); err != nil {
			t.Fatal(err)
		}
	}
	solo.Close()

	// The dispatcher parks before its first dequeue, so all four
	// requests are queued when it wakes and leave as one batch.
	arm, _, release, cleanup := stallDispatch()
	defer cleanup()
	arm()
	e, err := New(m, Options{Sessions: 1, MaxBatch: 4, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer release() // before Close: a stalled dispatcher cannot shut down
	inputs := []map[string]*tensor.Tensor{examples[0], examples[1], bad, examples[2]}
	got := make([]map[string]*tensor.Tensor, len(inputs))
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.Infer(context.Background(), in)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.stats.qdepth[PriorityInteractive].Load() != int64(len(inputs)) {
		if time.Now().After(deadline) {
			t.Fatal("the four requests never queued")
		}
		time.Sleep(50 * time.Microsecond)
	}
	release()
	wg.Wait()
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "out of range") {
		t.Fatalf("the bad request answered %v, want Gather's range error", errs[2])
	}
	for i, k := range []int{0, 1, 3} {
		if errs[k] != nil {
			t.Fatalf("good request %d failed with its bad batch-mate: %v", i, errs[k])
		}
		if !tensorsEqual(got[k]["probs"], want[i]["probs"]) {
			t.Fatalf("good request %d differs from its solo answer", i)
		}
	}
	if s := e.Stats(); s.Requests != 3 || s.Errors != 1 {
		t.Fatalf("3 served and 1 failed counted as requests %d errors %d", s.Requests, s.Errors)
	}
}
