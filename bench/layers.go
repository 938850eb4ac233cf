package main

// The per-layer pass of a traced run. Layers are this repo's packages;
// every number here comes from timing a public call or reading a
// public counter — Engine.Stats, telemetry.TraceCollector, PhaseLog,
// runtime.Event, Plan.Ops/Buffers/Slots/Edges, Arena.Stats,
// Pool.LeaseStats — never from a span added inside the program.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ---- sched and the Go runtime, sampled across the window ----

// poolSampler reads the shared worker pool's gauges and the goroutine
// count every 10 ms while a traced window runs.
type poolSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup

	samples               int
	busy, size, spawned   int
	want, granted, active int
	goroutinesPeak        int
}

func startPoolSampler() *poolSampler {
	p := &poolSampler{stopc: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		pool := sched.Default()
		for {
			select {
			case <-p.stopc:
				return
			case <-tick.C:
			}
			p.samples++
			p.busy += pool.Busy()
			p.size, p.spawned = pool.Size(), pool.Spawned()
			for _, l := range pool.LeaseStats() {
				p.want += l.Want
				p.granted += l.Granted
				p.active += l.Active
			}
			if n := runtime.NumGoroutine(); n > p.goroutinesPeak {
				p.goroutinesPeak = n
			}
		}
	}()
	return p
}

// stop ends the sampler and waits for its goroutine; nil-safe.
func (p *poolSampler) stop() {
	if p == nil {
		return
	}
	close(p.stopc)
	p.done.Wait()
}

func (p *poolSampler) metrics(m metrics) {
	if p == nil {
		return
	}
	m["sched.pool_busy_share"] = ratio(float64(p.busy), float64(p.samples*p.size))
	m["sched.pool_spawned"] = float64(p.spawned)
	m["sched.lease_grant_ratio"] = ratio(float64(p.granted), float64(p.want))
	m["sched.helper_active_share"] = ratio(float64(p.active), float64(p.granted))
	m["go.goroutines_peak"] = float64(p.goroutinesPeak)
}

func goMetrics(m metrics, a, b goStats, t *tally) {
	wall := t.wall
	ops := float64(t.n[opOK])
	m["go.allocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), ops)
	m["go.alloc_kb_per_op"] = ratio(float64(b.allocBytes-a.allocBytes)/1024, ops)
	m["go.gc_cycles_per_s"] = ratio(float64(b.gcCycles-a.gcCycles), wall.Seconds())
	m["go.gc_pause_ms_per_s"] = ratio(ms(b.gcPause-a.gcPause), wall.Seconds())
	m["go.heap_inuse_mb"] = float64(b.heapInuse) / (1 << 20)
}

// timeMedianMS runs f n times and returns the median wall in ms.
func timeMedianMS(n int, f func() error) (float64, error) {
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d = append(d, ms(time.Since(t0)))
	}
	return median(d), nil
}

func scrapeMS(reg *telemetry.Registry) (float64, error) {
	return timeMedianMS(5, func() error { return reg.WritePrometheus(io.Discard) })
}

// ---- serve ----

// engineMetrics reads the engine's own counters for the window.
func engineMetrics(out metrics, st serve.Stats, wall time.Duration) {
	req := float64(st.Requests + st.Rejected + st.Shed)
	out["serve.queue_wait_p50_ms"] = ms(st.QueueWaitP50)
	out["serve.queue_wait_p99_ms"] = ms(st.QueueWaitP99)
	out["serve.batch_fill"] = ratio(st.MeanBatchFill, serveBatch)
	out["serve.batch_exec_ms"] = ms(st.BatchLatencyEWMA)
	out["serve.batches_per_s"] = ratio(float64(st.Batches), wall.Seconds())
	out["serve.rejected_share"] = ratio(float64(st.Rejected), req)
	out["serve.shed_share"] = ratio(float64(st.Shed), req)
	out["serve.expired_share"] = ratio(float64(st.Expired), req)
	out["tensor.arena_reuse_ratio"] = st.ArenaReuseRatio
	out["tensor.arena_bytes"] = float64(st.ArenaBytes)
}

// importTrace copies one finished request trace of the existing
// collector into the recorder under parent, request-level spans as
// serve.<name> and per-op spans (lanes ≥ 1) as tensor.<op>.
func importTrace(rec *recorder, tr *telemetry.Trace, parent int32, op int64) {
	ids := map[telemetry.SpanID]int32{}
	for _, s := range tr.Spans() {
		name := "serve." + s.Name
		if s.Lane > 0 {
			name = "tensor." + s.Name
		}
		p := parent
		if s.Parent != 0 {
			p = ids[s.Parent]
		}
		ids[s.ID] = rec.add(name, p, op, s.Lane, s.Start, s.Dur)
	}
}

// collectorSpans drains the collector, imports the retained traces as
// roots of their own (the client side cannot know which server trace
// answered which request; they line up by time in the Chrome trace)
// and reports the median of each request-level phase.
func collectorSpans(out metrics, rec *recorder, tc *telemetry.TraceCollector) {
	durs := map[string][]float64{}
	for i, tr := range tc.Drain() {
		for _, s := range tr.Spans() {
			if s.Lane == 0 {
				durs[s.Name] = append(durs[s.Name], ms(s.Dur))
			}
		}
		if i < 256 { // enough server-side trees for a readable trace file
			importTrace(rec, tr, 0, -int64(tr.ID))
		}
	}
	for _, name := range []string{"admission", "queue", "batch", "run"} {
		out["serve.span."+name+"_ms"] = median(durs[name])
	}
}

func tailMetrics(out metrics, lat []float64) {
	s := sortedCopy(lat)
	out["serve.op_p99_ms"] = tailPercentile(s, 0.99)
	out["serve.op_p999_ms"] = tailPercentile(s, 0.999)
}

func (w *serveHTTP) layers(c *config, rec *recorder, t *tally, out metrics) error {
	engineMetrics(out, w.eng.Stats(), t.wall)
	collectorSpans(out, rec, w.tc)
	tailMetrics(out, t.lat)
	out["serve.interactive_p99_ms"] = out["serve.op_p99_ms"] // every request rides the interactive lane

	var reqBytes, respBytes float64
	for i := range w.bodies {
		reqBytes += float64(len(w.bodies[i]))
		respBytes += float64(len(w.refs[i]))
	}
	out["serve.request_bytes"] = reqBytes / float64(len(w.bodies))
	out["serve.response_bytes"] = respBytes / float64(len(w.bodies))

	// Side pass 1: the handler without a socket, one request at a time.
	// The collector's request trace is the handler span's child, so the
	// handler's self time is what JSON decode/encode and the mux cost.
	const sideReqs = 64
	var handlerMS, inferMS, codecMS []float64
	for n := 0; n < sideReqs; n++ {
		i := n % len(w.bodies)
		req := httptest.NewRequest(http.MethodPost, w.url, bytes.NewReader(w.bodies[i]))
		resp := httptest.NewRecorder()
		op := int64(1_000_000 + n)
		t0 := time.Now()
		w.handler.ServeHTTP(resp, req)
		d := time.Since(t0)
		if o := w.judge(i, resp.Body.Bytes(), resp.Code, nil); o != opOK {
			return fmt.Errorf("handler side pass: request %d outcome %d", n, o)
		}
		traces := w.tc.Drain()
		if len(traces) != 1 {
			return fmt.Errorf("handler side pass: %d traces for one request", len(traces))
		}
		local := []span{{Name: "serve.http_handler", Start: t0.Sub(rec.epoch), End: t0.Sub(rec.epoch) + d}}
		for _, s := range traces[0].Spans() {
			if s.Parent == 0 {
				st := s.Start.Sub(rec.epoch)
				local = append(local, span{Name: "serve.request", Start: st, End: st + s.Dur, Parent: 1})
				inferMS = append(inferMS, ms(s.Dur))
			}
		}
		handlerMS = append(handlerMS, ms(d))
		codecMS = append(codecMS, ms(selfTimes(local)[0]))
		h := rec.add("serve.http_handler", 0, op, 0, t0, d)
		importTrace(rec, traces[0], h, op)
	}
	out["serve.http_handler_ms"] = median(handlerMS)
	out["serve.infer_ms"] = median(inferMS)
	out["serve.http_codec_ms"] = median(codecMS)

	// Side pass 2: the same requests over the loopback socket; what the
	// handler does not account for is the network and client stack.
	var tripMS []float64
	for n := 0; n < sideReqs; n++ {
		i := n % len(w.bodies)
		t0 := time.Now()
		body, status, err := w.post(i)
		tripMS = append(tripMS, ms(time.Since(t0)))
		if o := w.judge(i, body, status, err); o != opOK {
			return fmt.Errorf("loopback side pass: request %d outcome %d", n, o)
		}
	}
	w.tc.Drain()
	out["serve.http_net_ms"] = median(tripMS) - median(handlerMS)

	var err error
	out["telemetry.scrape_ms"], err = scrapeMS(w.reg)
	return err
}

func (w *serveOpen) layers(c *config, rec *recorder, t *tally, out metrics) error {
	engineMetrics(out, w.eng.Stats(), t.wall)
	collectorSpans(out, rec, w.tc)
	tailMetrics(out, t.lat)
	out["serve.interactive_p99_ms"] = tailPercentile(sortedCopy(w.laneLat[0]), 0.99)
	out["serve.batchlane_p99_ms"] = tailPercentile(sortedCopy(w.laneLat[1]), 0.99)
	out["serve.infer_ms"] = totalsByName(rec.snapshot())["serve.infer_priority"].medianMS()
	out["gen.late_p95_ms"] = percentile(sortedCopy(w.late), 0.95)
	out["gen.dropped"] = float64(w.dropped)

	// Overload stage (ROADMAP 4f as a number): the same engine offered
	// twice the fixed rate. Goodput should hold near its 1× value and
	// the interactive lane's tail should stay bounded. Diagnostic only:
	// how much is shed under overload is capacity noise.
	dur := min(c.side, 5*time.Second)
	if dur > 0 {
		sched := openSchedule(c.seed+1, 2*openRate, dur, openBatch, len(w.examples))
		res, _, _, wall := openLoop(w.eng, w.examples, w.refs, sched, nil)
		var good int
		var inter []float64
		for i, r := range res {
			if r.out != opOK {
				continue
			}
			if r.lat <= openBudget {
				good++
			}
			if !sched[i].Batch {
				inter = append(inter, ms(r.lat))
			}
		}
		out["serve.overload_goodput_ratio"] = ratio(ratio(float64(good), wall.Seconds()), t.opsPerS())
		out["serve.overload_interactive_p99_ms"] = tailPercentile(sortedCopy(inter), 0.99)
		w.tc.Drain()
	}

	reg := telemetry.NewRegistry()
	w.eng.RegisterMetrics(reg)
	defer w.eng.UnregisterMetrics(reg)
	var err error
	out["telemetry.scrape_ms"], err = scrapeMS(reg)
	return err
}

// ---- models, graph, runtime, tensor ----

var classKeys = [graph.NumClasses]string{
	graph.ClassMatrix:       "matrix",
	graph.ClassConv:         "convolution",
	graph.ClassElementwise:  "elementwise",
	graph.ClassReduction:    "reduction",
	graph.ClassRandom:       "random",
	graph.ClassOptimization: "optimization",
	graph.ClassDataMovement: "movement",
}

func (w *runLoop) layers(c *config, rec *recorder, t *tally, out metrics) error {
	a := &w.agg
	runs := float64(a.runs)
	out["models.setup_ms"] = ms(w.modelSetup)
	out["graph.nodes"] = float64(w.m.Graph().NumNodes())
	out["runtime.session_new_ms"] = ms(w.sessionNew)
	out["runtime.run_ms"] = median(a.runMS)
	// The first Run of a fetch set compiles its plan; what it costs
	// beyond a steady run is the compile.
	out["runtime.compile_ms"] = ms(w.firstRun) - median(a.runMS)
	plan := w.sess.Plan(w.fetches)
	out["runtime.plan_ops"] = float64(plan.Ops())
	out["runtime.plan_buffers"] = float64(plan.Buffers())
	out["runtime.plan_slots"] = float64(plan.Slots())
	out["runtime.plan_edges"] = float64(plan.Edges())
	out["runtime.ops_per_run"] = ratio(float64(a.ops), runs)
	out["runtime.op_self_ms"] = ratio(ms(a.opWall), runs)
	out["runtime.dispatch_share"] = ratio(float64(a.runSelf), float64(a.runWall))
	out["runtime.interop_occupancy"] = ratio(float64(a.opWall), float64(a.runWall)*float64(w.interOp))
	out["runtime.critical_path_share"] = ratio(float64(a.simCP), float64(a.simSerial))

	var top time.Duration
	for _, d := range a.byType {
		top = max(top, d)
	}
	out["tensor.top_op_share"] = ratio(float64(top), float64(a.opWall))
	for cl, key := range classKeys {
		out["tensor.class_share."+key] = ratio(float64(a.byClass[cl]), float64(a.opWall))
	}
	ar := w.sess.Arena().Stats()
	out["tensor.arena_reuse_ratio"] = ar.ReuseRatio()
	out["tensor.arena_bytes"] = float64(ar.TotalBytes)

	// Side passes. The per-workload step table (the paper's per-workload
	// view, which two end-to-end run workloads cannot give) gets half
	// the budget; the training half rides run-conv-train and the
	// inference half run-rnn-infer.
	mode, key := core.ModeInference, "models.infer_step_ms."
	if w.training {
		mode, key = core.ModeTraining, "models.train_step_ms."
	}
	names := core.Names()
	for _, name := range names {
		v, err := stepMS(name, mode, c.seed, c.side/time.Duration(2*len(names)))
		if err != nil {
			return err
		}
		out[key+name] = v
	}
	if !w.training {
		return nil
	}
	if err := w.intraOpPass(c, out); err != nil {
		return err
	}
	return matmulProbes(out)
}

// stepMS is the median self-feeding step time of one registered
// workload on a serial session: one warm-up step, then steps for the
// slice (at least three).
func stepMS(name string, mode core.Mode, seed int64, slice time.Duration) (float64, error) {
	m, err := newModel(name, seed, 0)
	if err != nil {
		return 0, err
	}
	s := rt.NewSession(m.Graph(), rt.WithSeed(seed))
	defer s.Close()
	if err := core.Step(m, s, mode); err != nil {
		return 0, fmt.Errorf("%s %v warm-up: %w", name, mode, err)
	}
	var d []float64
	for start := time.Now(); len(d) < 3 || time.Since(start) < slice; {
		t0 := time.Now()
		if err := core.Step(m, s, mode); err != nil {
			return 0, fmt.Errorf("%s %v step: %w", name, mode, err)
		}
		d = append(d, ms(time.Since(t0)))
	}
	return median(d), nil
}

// intraOpPass steps the conv workload untraced at intra-op width 1 and
// at the benchmark's width for an eighth of the budget each and reports
// what the second worker buys (step time ratio) and costs (CPU ratio).
func (w *runLoop) intraOpPass(c *config, out metrics) error {
	arm := func(intraOp int) (stepMS, cpuMS float64, err error) {
		l, err := newLoop(w.model, true, c.seed, intraOp, 1, false)
		if err != nil {
			return 0, 0, err
		}
		defer l.sess.Close()
		if _, _, err := l.run(0, nil, 0, 0); err != nil {
			return 0, 0, err
		}
		var d []float64
		cpu0 := cpuTime()
		for start := time.Now(); len(d) < 3 || time.Since(start) < c.side/8; {
			t0 := time.Now()
			if _, _, err := l.run(len(d)+1, nil, 0, 0); err != nil {
				return 0, 0, err
			}
			d = append(d, ms(time.Since(t0)))
		}
		return median(d), ms(cpuTime()-cpu0) / float64(len(d)), nil
	}
	s1, c1, err := arm(1)
	if err != nil {
		return err
	}
	s2, c2, err := arm(width)
	if err != nil {
		return err
	}
	out["tensor.intraop_speedup"] = ratio(s1, s2)
	out["tensor.intraop_cpu_ratio"] = ratio(c2, c1)
	return nil
}

// kernelPool is an intra-op pool at the benchmark's width on the
// shared worker pool, for calling kernels directly.
func kernelPool() (*tensor.Pool, *sched.Lease) {
	lease := sched.Default().LeaseNamed("bench/kernels", width-1)
	return tensor.NewParallelPool(width, lease), lease
}

// matmulProbes calls tensor.MatMul directly on the three shapes the
// kernel tier was built for and reports GFLOP/s from the median of
// five calls.
func matmulProbes(out metrics) error {
	pool, lease := kernelPool()
	defer lease.Close()
	rng := rand.New(rand.NewSource(31))
	for _, sh := range []struct {
		name    string
		m, k, n int
	}{
		{"square_512", 512, 512, 512},
		{"tall_4096x256x64", 4096, 256, 64},
		{"wide_64x256x4096", 64, 256, 4096},
	} {
		a := tensor.RandNormal(rng, 0, 1, sh.m, sh.k)
		b := tensor.RandNormal(rng, 0, 1, sh.k, sh.n)
		call := func() error {
			_, err := tensor.MatMul(pool, a, b, false, false)
			return err
		}
		if err := call(); err != nil {
			return err
		}
		med, err := timeMedianMS(5, call)
		if err != nil {
			return err
		}
		out["tensor.matmul_gflops."+sh.name] = ratio(2*float64(sh.m)*float64(sh.k)*float64(sh.n)/1e9, med/1e3)
	}
	return nil
}

// attentionProbes calls tensor.Attention directly on the long-sequence
// and tiny-head shapes and reports the median of five calls.
func attentionProbes(out metrics) error {
	pool, lease := kernelPool()
	defer lease.Close()
	rng := rand.New(rand.NewSource(47))
	for _, sh := range []struct {
		name     string
		g, s, dh int
	}{
		{"longseq_4x1024x16", 4, 1024, 16},
		{"tinyhead_16x256x8", 16, 256, 8},
	} {
		q := tensor.RandNormal(rng, 0, 1, sh.g, sh.s, sh.dh)
		k := tensor.RandNormal(rng, 0, 1, sh.g, sh.s, sh.dh)
		v := tensor.RandNormal(rng, 0, 1, sh.g, sh.s, sh.dh)
		scale := float32(1 / math.Sqrt(float64(sh.dh)))
		call := func() error {
			_, err := tensor.Attention(pool, q, k, v, scale)
			return err
		}
		if err := call(); err != nil {
			return err
		}
		med, err := timeMedianMS(5, call)
		if err != nil {
			return err
		}
		out["tensor.attention_ms."+sh.name] = med
	}
	return nil
}

// ---- dist and fuse ----

// phaseMetrics reports the median of each phase over the retained
// PhaseLog (the trainers keep the last 256 steps).
func phaseMetrics(out metrics, layer string, log []telemetry.PhaseSample) {
	var sample, grad, reduce, apply []float64
	for _, p := range log {
		sample = append(sample, ms(p.Sample))
		grad = append(grad, ms(p.Grad))
		reduce = append(reduce, ms(p.Reduce))
		apply = append(apply, ms(p.Apply))
	}
	out[layer+".sample_ms"] = median(sample)
	out[layer+".grad_ms"] = median(grad)
	out[layer+".reduce_ms"] = median(reduce)
	out[layer+".apply_ms"] = median(apply)
}

// standaloneStepsPerS is the plain single-worker baseline of the train
// workloads: a 1-replica dist.Trainer on the same model, seed and
// chunk grid, stepped for dur after the usual warm-up.
func standaloneStepsPerS(seed int64, dur time.Duration) (float64, error) {
	t, err := dist.New(trainModel, dist.Options{Replicas: 1, Chunks: trainChunks, Preset: preset, Seed: seed, IntraOpWorkers: 1})
	if err != nil {
		return 0, err
	}
	defer t.Close()
	if _, err := t.Train(warmSteps); err != nil {
		return 0, err
	}
	var n int
	start := time.Now()
	for n < 3 || time.Since(start) < dur {
		if _, err := t.Step(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

func (w *trainDist) layers(c *config, rec *recorder, t *tally, out metrics) error {
	phaseMetrics(out, "dist", w.t.PhaseLog())
	// Coordination is the step span's self time: what no phase claims.
	if st := totalsByName(rec.snapshot())["dist.step"]; st != nil {
		out["dist.coord_ms"] = ratio(ms(st.self), float64(st.count))
	}
	base, err := standaloneStepsPerS(c.seed, min(c.side/2, 5*time.Second))
	if err != nil {
		return err
	}
	out["dist.scaling_efficiency"] = ratio(t.opsPerS(), width*base)

	// The loss after a fixed number of steps is an exact count-like
	// number: same seed, same bits, on any host. Quick runs stop short.
	const lossStep = 200
	for !c.quick && w.t.Steps() < lossStep {
		if _, err := w.t.Step(); err != nil {
			return err
		}
	}
	losses := w.t.Losses()
	out["dist.loss_final"] = losses[min(lossStep, len(losses))-1]

	var ckpt bytes.Buffer
	t0 := time.Now()
	if err := w.t.SaveCheckpoint(&ckpt); err != nil {
		return err
	}
	out["dist.checkpoint_save_ms"] = ms(time.Since(t0))
	out["dist.checkpoint_bytes"] = float64(ckpt.Len())
	t0 = time.Now()
	if err := w.t.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
		return err
	}
	out["dist.checkpoint_load_ms"] = ms(time.Since(t0))

	reg := telemetry.NewRegistry()
	w.t.RegisterMetrics(reg)
	defer w.t.UnregisterMetrics(reg)
	if out["telemetry.scrape_ms"], err = scrapeMS(reg); err != nil {
		return err
	}
	return attentionProbes(out)
}

func (w *trainFuse) layers(c *config, rec *recorder, t *tally, out metrics) error {
	phaseMetrics(out, "fuse", w.a.PhaseLog())
	// Build cost beyond one steady step: New plus the first step's
	// graph transform and plan compile.
	out["fuse.build_ms"] = ms(w.build) - median(w.stepsMS)
	trainees := fuseWidth * t.opsPerS()
	out["fuse.trainee_steps_per_s"] = trainees
	base, err := standaloneStepsPerS(c.seed, min(c.side/2, 5*time.Second))
	if err != nil {
		return err
	}
	out["fuse.vs_standalone"] = ratio(trainees, base)

	reg := telemetry.NewRegistry()
	w.a.RegisterMetrics(reg)
	defer w.a.UnregisterMetrics(reg)
	out["telemetry.scrape_ms"], err = scrapeMS(reg)
	return err
}
