package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// traceRing is how many finished request traces the existing collector
// retains in a traced run; older ones are dropped, so span medians
// describe the window's last few thousand requests.
const traceRing = 4096

// engineFor builds the model at the micro-batching window and the
// engine shape both serve workloads share (Sessions 2, MaxBatch 8,
// MaxDelay 500µs). deadline 0 means requests never expire; queueLen 0 is
// the engine's default (4×MaxBatch per lane).
func engineFor(model string, c *config, deadline time.Duration, queueLen int) (core.Model, *serve.Engine, *telemetry.TraceCollector, error) {
	m, err := newModel(model, c.seed, serveBatch)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := serve.Options{
		Sessions:        width,
		MaxBatch:        serveBatch,
		MaxDelay:        serveDelay,
		Seed:            c.seed,
		DefaultDeadline: deadline,
		QueueLen:        queueLen,
	}
	var tc *telemetry.TraceCollector
	if c.traced {
		tc = telemetry.NewTraceCollector(1, traceRing)
		opts.Trace = tc
	}
	eng, err := serve.New(m, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, eng, tc, nil
}

// ---- serve-http-closed ----

// serveHTTP drives neuraltalk through serve.Server.Handler() on a
// loopback listener with two keep-alive connections, each a caller
// that waits for its reply before sending the next request.
type serveHTTP struct {
	eng     *serve.Engine
	tc      *telemetry.TraceCollector
	reg     *telemetry.Registry
	handler http.Handler
	srv     *http.Server
	served  chan error
	client  *http.Client
	url     string
	bodies  [][]byte // request JSON per example
	refs    [][]byte // reference response body per example
	nextOp  atomic.Int64
}

type wireTensor struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

// requestBody renders one example in the server's documented request
// form: {"inputs": {<name>: {"shape": [...], "data": [...]}}}.
func requestBody(ex map[string]*tensor.Tensor) ([]byte, error) {
	in := make(map[string]wireTensor, len(ex))
	for name, t := range ex {
		in[name] = wireTensor{Shape: t.Shape(), Data: t.Data()}
	}
	return json.Marshal(map[string]any{"inputs": in})
}

func (w *serveHTTP) setup(c *config, rec *recorder) error {
	m, eng, tc, err := engineFor("neuraltalk", c, 0, 0)
	if err != nil {
		return err
	}
	w.eng, w.tc = eng, tc
	srv := serve.NewServer()
	srv.Register(eng)
	if c.traced {
		w.reg = telemetry.NewRegistry()
		srv.EnableTelemetry(w.reg, tc)
	}
	w.handler = srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.handler}
	w.served = make(chan error, 1)
	go func() { w.served <- w.srv.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/models/" + m.Name() + ":infer"
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: width, MaxConnsPerHost: width}}

	examples, err := serve.Examples(m, warmReqs)
	if err != nil {
		return err
	}
	for _, ex := range examples {
		b, err := requestBody(ex)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, b)
	}
	// Reference pass: one request at a time, so every batch has fill 1
	// and a response can only depend on its own example.
	for i := range w.bodies {
		body, status, err := w.post(i)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference request %d: status %d: %v", i, status, err)
		}
		w.refs = append(w.refs, body)
	}
	// Concurrent warm-up: both sessions compile their plans and both
	// connections are established before the window opens.
	warm := w.closedLoop(c.seed, warmReqs/width, 0, nil)
	if f := warm.failed(); f > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed (outcomes %v)", f, warm.attempted(), warm.n)
	}
	eng.ResetStats()
	return nil
}

func (w *serveHTTP) post(example int) ([]byte, int, error) {
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(w.bodies[example]))
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return body, resp.StatusCode, err
}

// judge classifies one reply against the reference body.
func (w *serveHTTP) judge(example int, body []byte, status int, err error) outcome {
	switch {
	case err != nil:
		return opErrored
	case status == http.StatusServiceUnavailable:
		return opRefused
	case status == http.StatusGatewayTimeout:
		return opExpired
	case status != http.StatusOK:
		return opErrored
	case !bytes.Equal(body, w.refs[example]):
		return opWrong
	}
	return opOK
}

// closedLoop runs width callers, each sending its next request when
// the previous reply has arrived, until each has sent perCaller
// requests (perCaller > 0) or the window has passed.
func (w *serveHTTP) closedLoop(seed int64, perCaller int, window time.Duration, rec *recorder) *tally {
	tallies := make([]tally, width)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for k := 0; k < width; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*width + int64(k)))
			for n := 0; ; n++ {
				if perCaller > 0 && n >= perCaller {
					return
				}
				if perCaller == 0 && !time.Now().Before(deadline) {
					return
				}
				i := rng.Intn(len(w.bodies))
				sp := rec.begin("bench.http_roundtrip", 0, w.nextOp.Add(1))
				t0 := time.Now()
				body, status, err := w.post(i)
				lat := time.Since(t0)
				rec.end(sp)
				tallies[k].add(w.judge(i, body, status, err), lat)
			}
		}(k)
	}
	wg.Wait()
	total := &tallies[0]
	for k := 1; k < width; k++ {
		total.merge(&tallies[k])
	}
	return total
}

func (w *serveHTTP) measure(c *config, rec *recorder) (*tally, error) {
	return w.closedLoop(c.seed+1, 0, c.window, rec), nil
}

func (w *serveHTTP) verify(*config, *tally) error { return nil }

func (w *serveHTTP) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = w.srv.Shutdown(ctx) // best effort: the process exits right after
		cancel()
		<-w.served
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.eng != nil {
		w.eng.Close()
	}
}

// ---- serve-open-mixed ----

// serveOpen drives memnet in process through Engine.InferPriority with
// an open loop: a seeded Poisson schedule at a fixed rate, half the
// arrivals on each lane, every request a goroutine of its own.
type serveOpen struct {
	eng      *serve.Engine
	tc       *telemetry.TraceCollector
	examples []map[string]*tensor.Tensor
	refs     []map[string]*tensor.Tensor

	// Filled by measure for the per-layer pass.
	late    []float64 // ms, generator lateness per arrival
	dropped int
	laneLat [2][]float64 // ms per lane (0 interactive, 1 batch), correct ops
}

// maxInFlight is the generator's own safety valve. The engine's
// bounded queues keep in-flight requests far below it; an arrival
// dropped here is reported (gen.dropped) and counted as refused.
const maxInFlight = 4096

func (w *serveOpen) setup(c *config, rec *recorder) error {
	m, eng, tc, err := engineFor("memnet", c, openBudget, openQueue)
	if err != nil {
		return err
	}
	w.eng, w.tc = eng, tc
	if w.examples, err = serve.Examples(m, warmReqs); err != nil {
		return err
	}
	// Reference pass, one request at a time.
	for i, ex := range w.examples {
		out, err := eng.Infer(context.Background(), ex)
		if err != nil {
			return fmt.Errorf("reference request %d: %w", i, err)
		}
		w.refs = append(w.refs, out)
	}
	// Concurrent warm-up, so both sessions have compiled their plans.
	var wg sync.WaitGroup
	errs := make([]error, width)
	for k := 0; k < width; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < warmReqs; i += width {
				out, err := eng.Infer(context.Background(), w.examples[i])
				if err == nil && !sameOutputs(out, w.refs[i]) {
					err = fmt.Errorf("warm-up request %d differs from its one-at-a-time reference", i)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	eng.ResetStats()
	return nil
}

// openResult is one arrival's outcome, written by its own goroutine
// into its own slot.
type openResult struct {
	lat time.Duration // from the instant the request was due
	out outcome
}

// inferrer is the one engine method the open loop drives; the schedule
// test substitutes an engine that answers out of order.
type inferrer interface {
	InferPriority(ctx context.Context, inputs map[string]*tensor.Tensor, lane serve.Priority) (map[string]*tensor.Tensor, error)
}

// openLoop offers the schedule to the engine from this one goroutine
// and returns one result per arrival plus how late each was sent. It
// sleeps to each arrival's absolute due time, so a late wake-up never
// shifts the rest of the schedule.
func openLoop(eng inferrer, examples, refs []map[string]*tensor.Tensor, sched []arrival, rec *recorder) (res []openResult, late []time.Duration, dropped int, wall time.Duration) {
	res = make([]openResult, len(sched))
	late = make([]time.Duration, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		if wait := a.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(start) - a.Due
		if inflight.Load() >= maxInFlight {
			dropped++
			res[i] = openResult{out: opRefused}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			defer inflight.Add(-1)
			lane := serve.PriorityInteractive
			if a.Batch {
				lane = serve.PriorityBatch
			}
			sp := rec.begin("serve.infer_priority", 0, int64(i+1))
			out, err := eng.InferPriority(context.Background(), examples[a.Example], lane)
			rec.end(sp)
			r := openResult{lat: time.Since(start) - a.Due}
			switch {
			case err == nil && sameOutputs(out, refs[a.Example]):
				r.out = opOK
			case err == nil:
				r.out = opWrong
			case errors.Is(err, serve.ErrOverloaded):
				r.out = opRefused
			case errors.Is(err, serve.ErrExpired), errors.Is(err, context.DeadlineExceeded):
				r.out = opExpired
			default:
				r.out = opErrored
			}
			res[i] = r
		}(i, a)
	}
	wg.Wait()
	return res, late, dropped, time.Since(start)
}

func (w *serveOpen) measure(c *config, rec *recorder) (*tally, error) {
	sched := openSchedule(c.seed, openRate, c.window, openBatch, len(w.examples))
	res, late, dropped, _ := openLoop(w.eng, w.examples, w.refs, sched, rec)
	t := &tally{lat: make([]float64, 0, len(res))}
	for i, r := range res {
		t.add(r.out, r.lat)
		if r.out == opOK {
			lane := 0
			if sched[i].Batch {
				lane = 1
			}
			w.laneLat[lane] = append(w.laneLat[lane], ms(r.lat))
		}
	}
	w.late = make([]float64, len(late))
	for i, d := range late {
		w.late[i] = ms(d)
	}
	w.dropped = dropped
	p95 := percentile(sortedCopy(w.late), 0.95)
	fmt.Fprintf(os.Stderr, "serve-open-mixed: offered %d arrivals, generator lateness p95 %.3f ms, dropped %d\n", len(sched), p95, dropped)
	if !c.quick && !c.traced && p95 > ms(maxLateP95) {
		return nil, fmt.Errorf("open-loop generator ran late: p95 lateness %.3f ms exceeds %v, so the offered rate was not %v req/s; run invalid", p95, maxLateP95, openRate)
	}
	return t, nil
}

func (w *serveOpen) verify(*config, *tally) error { return nil }

func (w *serveOpen) close() {
	if w.eng != nil {
		w.eng.Close()
	}
}
