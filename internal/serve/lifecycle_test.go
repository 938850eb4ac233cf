// Request-lifecycle tests: the one dequeue loop driven on bare
// channels, the one-outcome-per-call accounting, the parity of the two
// stats surfaces, and the HTTP decoder under fuzz.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// window drives Engine.dispatch without a model: an Engine assembled by
// hand from its channels, with the test playing both the callers (push)
// and the workers (recv).
type window struct {
	t *testing.T
	e *Engine
}

func newWindow(t *testing.T, maxBatch int, maxDelay time.Duration) *window {
	e := &Engine{
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		batches:  make(chan []*request),
		done:     make(chan struct{}),
	}
	for lane := range e.lanes {
		e.lanes[lane] = make(chan *request, 16)
	}
	return &window{t: t, e: e}
}

func (w *window) push(lane Priority, ctx context.Context) *request {
	r := &request{ctx: ctx, resp: make(chan response, 1), enq: time.Now(), lane: lane}
	w.e.lanes[lane] <- r
	w.e.stats.qdepth[lane].Add(1)
	return r
}

// waitDepth blocks until exactly n requests are still queued.
func (w *window) waitDepth(n int64) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.e.stats.qdepth[PriorityInteractive].Load()+w.e.stats.qdepth[PriorityBatch].Load() != n {
		if time.Now().After(deadline) {
			w.t.Fatalf("queue depth never reached %d", n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// recv plays a free worker: it takes the next batch the dispatcher
// hands off.
func (w *window) recv() []*request {
	w.t.Helper()
	select {
	case b, ok := <-w.e.batches:
		if !ok {
			w.t.Fatal("dispatcher exited; no batch")
		}
		return b
	case <-time.After(5 * time.Second):
		w.t.Fatal("no batch handed off")
		return nil
	}
}

func (w *window) answer(r *request) response {
	w.t.Helper()
	select {
	case resp := <-r.resp:
		return resp
	case <-time.After(5 * time.Second):
		w.t.Fatal("request never answered")
		return response{}
	}
}

// TestDispatchWindow is the table for the one dequeue loop: each row
// scripts arrivals and worker availability against a bare dispatcher
// and checks what leaves it.
func TestDispatchWindow(t *testing.T) {
	bg := context.Background()
	const never = time.Hour // a MaxDelay no test outlives: the timer arm cannot be what moved a batch
	rows := []struct {
		name     string
		maxBatch int
		maxDelay time.Duration
		script   func(t *testing.T, w *window)
	}{
		{"fills to MaxBatch without waiting for the timer", 3, never, func(t *testing.T, w *window) {
			for i := 0; i < 3; i++ {
				w.push(PriorityInteractive, bg)
			}
			go w.e.dispatch()
			if b := w.recv(); len(b) != 3 {
				t.Fatalf("fill = %d, want 3", len(b))
			}
		}},
		{"flushes a partial batch at MaxDelay", 4, 5 * time.Millisecond, func(t *testing.T, w *window) {
			w.push(PriorityInteractive, bg)
			w.push(PriorityBatch, bg)
			start := time.Now()
			go w.e.dispatch()
			if b := w.recv(); len(b) != 2 {
				t.Fatalf("fill = %d, want 2", len(b))
			}
			if d := time.Since(start); d < 5*time.Millisecond {
				t.Fatalf("partial batch left after %v, before MaxDelay", d)
			}
		}},
		{"MaxBatch 1 never arms the timer", 1, never, func(t *testing.T, w *window) {
			w.push(PriorityInteractive, bg)
			w.push(PriorityInteractive, bg)
			go w.e.dispatch()
			for i := 0; i < 2; i++ {
				if b := w.recv(); len(b) != 1 {
					t.Fatalf("batch %d: fill = %d, want 1", i, len(b))
				}
			}
		}},
		{"with every worker busy later arrivals top the batch up to MaxBatch", 4, time.Millisecond, func(t *testing.T, w *window) {
			first := w.push(PriorityInteractive, bg)
			go w.e.dispatch()
			w.waitDepth(0)
			time.Sleep(20 * time.Millisecond) // MaxDelay is long past: the batch is waiting for a worker
			for i := 0; i < 4; i++ {
				w.push(PriorityBatch, bg)
			}
			w.waitDepth(1) // three joined; the batch is full, so the fourth stays queued
			b := w.recv()
			if len(b) != 4 || b[0] != first {
				t.Fatalf("fill = %d, want the first request plus three top-ups", len(b))
			}
			if b := w.recv(); len(b) != 1 {
				t.Fatalf("next batch fill = %d, want the one left over", len(b))
			}
		}},
		{"interactive is drained before batch", 1, never, func(t *testing.T, w *window) {
			w.push(PriorityBatch, bg)
			w.push(PriorityBatch, bg)
			inter := w.push(PriorityInteractive, bg)
			go w.e.dispatch()
			if b := w.recv(); b[0] != inter {
				t.Fatal("a batch-lane request was dispatched ahead of a queued interactive one")
			}
		}},
		{"a request the vet rejects never occupies a slot", 2, never, func(t *testing.T, w *window) {
			dead, cancel := context.WithCancel(bg)
			cancel()
			gone := w.push(PriorityInteractive, dead)
			a, b := w.push(PriorityInteractive, bg), w.push(PriorityInteractive, bg)
			go w.e.dispatch()
			if got := w.recv(); len(got) != 2 || got[0] != a || got[1] != b {
				t.Fatalf("batch = %v, want the two live requests", got)
			}
			if resp := w.answer(gone); !errors.Is(resp.err, context.Canceled) || resp.outcome != cancelled {
				t.Fatalf("rejected request answered %+v, want context.Canceled / cancelled", resp)
			}
		}},
		{"done mid-window hands off what was collected and fails the rest", 4, never, func(t *testing.T, w *window) {
			w.push(PriorityInteractive, bg)
			w.push(PriorityBatch, bg)
			go w.e.dispatch()
			w.waitDepth(0)
			close(w.e.done)
			late := w.push(PriorityInteractive, bg)
			if b := w.recv(); len(b) != 2 {
				t.Fatalf("fill at shutdown = %d, want the 2 collected", len(b))
			}
			if resp := w.answer(late); resp.err != ErrClosed || resp.outcome != cancelled {
				t.Fatalf("queued request answered %+v at shutdown, want ErrClosed / cancelled", resp)
			}
			if _, open := <-w.e.batches; open {
				t.Fatal("dispatcher kept batching after shutdown")
			}
			w.waitDepth(0)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newWindow(t, row.maxBatch, row.maxDelay)
			row.script(t, w)
			select {
			case <-w.e.done:
			default:
				close(w.e.done)
				for range w.e.batches { // let a batch in hand leave so dispatch can return
				}
			}
		})
	}
}

// stallDispatch installs a dispatch hook that parks the dispatcher
// between batches while armed; parked receives once each time it does.
// The returned cleanup must run after Close has joined the dispatcher.
func stallDispatch() (arm func(), parked <-chan struct{}, release, cleanup func()) {
	var armed atomic.Bool
	stall := make(chan struct{})
	in := make(chan struct{}, 1)
	var once sync.Once
	testHookDispatch = func() {
		if armed.Load() {
			select {
			case in <- struct{}{}:
			default:
			}
			<-stall
		}
	}
	return func() { armed.Store(true) }, in,
		func() { once.Do(func() { close(stall) }) },
		func() { testHookDispatch = nil }
}

// TestEngineOutcomesConserve pins the accounting invariant: every
// validated call moves exactly one outcome counter, however many
// parties decided its fate.
func TestEngineOutcomesConserve(t *testing.T) {
	m := buildModel(t, "memnet", 1)
	examples := sampleExamples(t, m, 4)

	// A context deadline that fires while the request is queued is seen
	// twice — by the caller's own wait, then by the dispatcher when it
	// dequeues the corpse — and must be counted once, as expired.
	t.Run("deadline in queue", func(t *testing.T) {
		arm, parked, release, cleanup := stallDispatch()
		e, err := New(m, Options{Sessions: 1, MaxBatch: 1, MaxDelay: 100 * time.Microsecond})
		if err != nil {
			cleanup()
			t.Fatal(err)
		}
		defer cleanup()
		defer e.Close()
		defer release()                                                       // before Close: a stalled dispatcher cannot shut down
		if _, err := e.Infer(context.Background(), examples[0]); err != nil { // warm the plan
			t.Fatal(err)
		}
		e.ResetStats()
		// Park the dispatcher. Where it was when the stall was armed
		// decides whether it parks before or after this request; either
		// way the request is served, now or once the stall is released.
		arm()
		carried := make(chan error, 1)
		go func() {
			_, err := e.Infer(context.Background(), examples[0])
			carried <- err
		}()
		<-parked
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		if _, err := e.Infer(ctx, examples[1]); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		release()
		if err := <-carried; err != nil {
			t.Fatal(err)
		}
		// FIFO: once this one is served the dispatcher has dequeued, and
		// vetted, the dead request ahead of it.
		if _, err := e.Infer(context.Background(), examples[2]); err != nil {
			t.Fatal(err)
		}
		s := e.Stats()
		if s.Requests != 2 || s.Expired != 1 || s.Cancelled != 0 || s.Errors+s.Rejected+s.Shed != 0 {
			t.Fatalf("3 calls (2 served, 1 whose deadline fired in the queue) counted as %v", s)
		}
	})

	// A burst mixing both lanes, context deadlines and pre-cancelled
	// contexts into a 2-deep queue: whatever the scheduler makes of it,
	// the counters add up to the calls and each agrees with what the
	// callers saw.
	t.Run("mixed burst", func(t *testing.T) {
		e, err := New(m, Options{Sessions: 1, MaxBatch: 1, MaxDelay: 100 * time.Microsecond, QueueLen: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Infer(context.Background(), examples[0]); err != nil { // warm the plan and the EWMA
			t.Fatal(err)
		}
		e.ResetStats()
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		const n = 200
		var ok, overloaded, expiredSeen, cancelledSeen, other atomic.Uint64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, lane := context.Background(), Priority(i%numLanes)
				switch i % 4 {
				case 1:
					ctx = dead
				case 2, 3:
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i)*20*time.Microsecond)
					defer cancel()
				}
				_, err := e.InferPriority(ctx, examples[i%len(examples)], lane)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				case errors.Is(err, ErrExpired) || errors.Is(err, context.DeadlineExceeded):
					expiredSeen.Add(1)
				case errors.Is(err, context.Canceled):
					cancelledSeen.Add(1)
				default:
					other.Add(1)
					t.Errorf("unexpected error: %v", err)
				}
			}(i)
		}
		wg.Wait()
		s := e.Stats()
		if sum := s.Requests + s.Errors + s.Cancelled + s.Rejected + s.Shed + s.Expired; sum != n {
			t.Fatalf("outcomes sum to %d for %d calls: %v", sum, n, s)
		}
		if s.Requests != ok.Load() || s.Rejected+s.Shed != overloaded.Load() ||
			s.Expired != expiredSeen.Load() || s.Cancelled != cancelledSeen.Load() || s.Errors != other.Load() {
			t.Fatalf("callers saw ok %d overloaded %d expired %d cancelled %d other %d; counters: %v",
				ok.Load(), overloaded.Load(), expiredSeen.Load(), cancelledSeen.Load(), other.Load(), s)
		}
		if cancelledSeen.Load() != n/4 {
			t.Fatalf("%d of the %d pre-cancelled calls came back context.Canceled", cancelledSeen.Load(), n/4)
		}
	})
}

// scrape renders reg and returns each sample line's value keyed by
// its name{labels}.
func scrape(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestStatsSurfacesAgree: /metrics and /stats are walks of one table,
// so after a mixed run every number both carry is the same number, and
// UnregisterMetrics leaves nothing of this engine behind.
func TestStatsSurfacesAgree(t *testing.T) {
	m := buildModel(t, "memnet", 2)
	e, err := New(m, Options{Sessions: 2, MaxBatch: 2, MaxDelay: 200 * time.Microsecond, QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	examples := sampleExamples(t, m, 4)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	late, cancelLate := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelLate()
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := []context.Context{context.Background(), context.Background(), dead, late}[i%4]
			_, _ = e.InferPriority(ctx, examples[i%len(examples)], Priority(i%numLanes)) // outcomes are the point, not results
		}(i)
	}
	wg.Wait()

	reg := telemetry.NewRegistry()
	srv := NewServer()
	srv.Register(e)
	srv.EnableTelemetry(reg, nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats map[string]map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	metrics := scrape(t, reg)
	for series, field := range map[string]string{
		"fathom_serve_requests_total":    "requests",
		"fathom_serve_errors_total":      "errors",
		"fathom_serve_cancelled_total":   "cancelled",
		"fathom_serve_rejected_total":    "rejected",
		"fathom_serve_shed_total":        "shed",
		"fathom_serve_expired_total":     "expired",
		"fathom_serve_batches_total":     "batches",
		"fathom_serve_padded_rows_total": "padded_rows",
		"fathom_serve_queue_depth":       "queue_depth",
		"fathom_arena_bytes":             "arena_bytes",
		"fathom_arena_slot_bytes":        "arena_slot_bytes",
		"fathom_lease_granted":           "lease_granted",
	} {
		got, ok := metrics[series+`{model="memnet"}`]
		want, _ := stats["memnet"][field].(float64)
		if !ok || got != want {
			t.Errorf("%s = %v (present %v), /stats %s = %v", series, got, ok, field, want)
		}
	}
	if s := e.Stats(); s.Requests == 0 || s.Cancelled == 0 || s.Expired == 0 {
		t.Fatalf("the run was not mixed: %v", s)
	}

	e.UnregisterMetrics(reg)
	left := scrape(t, reg)
	for series := range left {
		if strings.Contains(series, `model="memnet"`) {
			t.Errorf("series %s survived UnregisterMetrics", series)
		}
	}
	if _, ok := left["fathom_pool_size"]; !ok {
		t.Error("the shared pool gauges must stay: another tenant may be exporting them")
	}
}

// FuzzInferRequest throws arbitrary bodies at the :infer endpoint of a
// live engine. Whatever arrives, the handler must not panic, must
// answer with a status of the contract, and every error body must be
// the {"error","code"} object with the code the contract gives that
// status.
func FuzzInferRequest(f *testing.F) {
	m := buildModel(f, "memnet", 1)
	e, err := New(m, Options{Sessions: 1, MaxBatch: 1, MaxDelay: 100 * time.Microsecond})
	if err != nil {
		f.Fatal(err)
	}
	defer e.Close()
	srv := NewServer()
	srv.Register(e)
	h := srv.Handler()

	ex := sampleExamples(f, m, 1)[0]
	stories, query := toJSONTensor(ex["stories"]), toJSONTensor(ex["query"])
	seed := func(req any) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	in := func(s, q any) map[string]any {
		return map[string]any{"inputs": map[string]any{"stories": s, "query": q}}
	}
	tens := func(shape []int, data []float32) map[string]any { return map[string]any{"shape": shape, "data": data} }
	seed(in(stories, query))                                               // well-formed
	seed(in(tens(stories.Shape, stories.Data[1:]), query))                 // ragged data
	seed(in(tens([]int{0, 4}, nil), query))                                // zero dimension
	seed(in(tens([]int{-1, 4}, nil), query))                               // negative dimension
	seed(in(tens([]int{1 << 40, 1 << 40}, nil), query))                    // huge dimensions
	seed(in(tens([]int{len(stories.Data)}, stories.Data), query))          // wrong rank
	seed(map[string]any{"inputs": map[string]any{"bogus": stories}})       // unknown input
	seed(map[string]any{"inputs": map[string]any{}, "priority": "urgent"}) // bad priority
	seed(map[string]any{"inputs": in(stories, query)["inputs"], "deadline_ms": 0})
	seed(map[string]any{"inputs": in(stories, query)["inputs"], "deadline_ms": -5})
	f.Add([]byte(`{"inputs":{"stories":{"shape":[4294967296,4294967296],"data":[]}}}`)) // element count wraps to 0
	f.Add([]byte(`{"inputs":`))

	codes := map[int][]string{
		http.StatusBadRequest:            {CodeInvalidInput},
		http.StatusRequestEntityTooLarge: {CodeTooLarge},
		http.StatusServiceUnavailable:    {CodeOverloaded, CodeClosed},
		http.StatusGatewayTimeout:        {CodeDeadlineExceeded},
		// Well-formed tensors can still carry values the graph refuses —
		// the target's first finding was a word index past memnet's
		// vocabulary, which Gather reports as an execution fault.
		http.StatusInternalServerError: {CodeInternal},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/memnet:infer", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			return
		}
		want, ok := codes[rec.Code]
		if !ok {
			t.Fatalf("status %d is not in the contract; body %s", rec.Code, rec.Body)
		}
		var je jsonError
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&je); err != nil || je.Error == "" {
			t.Fatalf("status %d body is not {error, code}: %v", rec.Code, err)
		}
		if !strings.Contains(strings.Join(want, " "), je.Code) || je.Code == "" {
			t.Fatalf("status %d carries code %q, want one of %v", rec.Code, je.Code, want)
		}
	})
}

// TestFromJSONTensorRefusesOverflow: a shape whose element count wraps
// (2^32 × 2^32 = 0 mod 2^64) must be refused by the size check, not
// built and left for the shape comparison to catch.
func TestFromJSONTensorRefusesOverflow(t *testing.T) {
	for _, jt := range []jsonTensor{
		{Shape: []int{1 << 32, 1 << 32}},
		{Shape: []int{1 << 62, 4, 1}, Data: []float32{1}},
		{Shape: []int{2, 3}, Data: make([]float32, 5)},
		{Shape: []int{2, 3}, Data: make([]float32, 7)},
	} {
		if _, err := fromJSONTensor(jt); err == nil {
			t.Errorf("shape %v with %d values was accepted", jt.Shape, len(jt.Data))
		}
	}
	if tn, err := fromJSONTensor(jsonTensor{Shape: []int{2, 3}, Data: make([]float32, 6)}); err != nil || tn.Size() != 6 {
		t.Fatalf("a well-formed tensor was refused: %v", err)
	}
}
