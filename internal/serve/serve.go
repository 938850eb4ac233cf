// Package serve is the suite's serving subsystem: a concurrent
// inference engine that exposes any Fathom workload's request-driven
// signature (core.Signature) to many simultaneous clients.
//
// # Architecture
//
// A runtime.Session is single-goroutine (its plan cache and slab are
// unsynchronized), so the Engine owns a pool of sessions —
// one per worker goroutine — over one shared model graph. Sharing the
// graph is safe for inference: forward execution only reads variable
// values, and the mode-dependent stateful ops (dropout masks,
// optimizer slots) mutate state exclusively in training mode. The
// Engine therefore runs inference only; training on the same model
// must remain exclusive with serving.
//
// Requests carry one example each and are executed in micro-batches
// along each input's batch axis (IOSpec.BatchDim). A micro-batch runs
// at the batch size it has, near enough: New builds a ladder of rungs
// — the workload's inference subgraph rebuilt (core.Rebatch, sharing
// the served model's variables) at each power of two below the
// effective MaxBatch and at MaxBatch itself, which is the served graph
// when MaxBatch is its full capacity — and each batch runs on the
// smallest rung that holds its fill, the slots past the fill
// zero-padded. A fill of 2 on an 8-wide graph runs two rows, not
// eight; every row is bit-equal to the same example's row on any other
// rung. Each worker's one session compiles one plan per rung it runs,
// lazily, and all of them share its one slab, sized to the largest rung
// it has run: rungs of one session never run at once, so the ladder
// costs no memory beyond its top rung. Workloads that couple examples
// across the batch (core.BatchCoupled — residual's primitive batch
// normalization) are refused unless built at batch capacity 1, so
// batch composition and padding never perturb a request's rows.
// Stochastic inference graphs
// (autoenc's reparameterization sampling) are served batched: their
// noise is drawn i.i.d. per element from the worker session's RNG, so
// results are distributionally equivalent to sequential inference but
// — as inherent to sampling — not bitwise reproducible across calls.
//
// # The life of a request
//
// Every Infer call takes the same path, one function per step:
//
//	validate  inputs match the signature, or InputError
//	admit     the deadline budget covers the estimated wait, or the
//	          request is expired / shed (or let through as the probe)
//	enqueue   a non-blocking send into its lane's bounded queue, or
//	          the request is rejected
//	dispatch  the dispatcher's window: dequeue, vet, collect
//	pack      the worker's last vet fixes the fill; copy into the
//	          buffers of the smallest rung that holds it
//	run       one compiled-plan run of that rung's fetch set; a run
//	          that returns an error re-runs each request alone
//	unpack    split the batched outputs into per-request responses
//	conclude  the caller counts the outcome and returns
//
// Nothing about the queue is unbounded. Each engine runs two priority
// lanes — PriorityInteractive and PriorityBatch — each a bounded queue
// of QueueLen requests; a full lane rejects immediately with
// ErrOverloaded instead of blocking, so under overload the engine
// sheds early and cheaply at the door rather than letting every
// request's latency collapse. The dispatcher is one loop over one
// receive: it always drains the interactive lane first (batch traffic
// absorbs queueing delay and is shed first, interactive latency stays
// bounded by roughly one batch execution), the first request it keeps
// opens a MaxDelay window, and the batch leaves when it is full or the
// window closes — except that while every worker is busy it keeps
// filling up to MaxBatch, so saturation converts queue time into batch
// fill.
//
// A request's deadline is the earlier of its context deadline and
// Options.DefaultDeadline from admission time. One check (worth)
// decides whether a request still deserves a batch slot — its context
// is live, its deadline is ahead, and its remaining budget covers the
// estimated wait — and runs three times: at admission against
// queued-batches-ahead × the EWMA batch latency (doubled when the
// shared worker pool is saturated, so engines sharing one pool shed
// cooperatively), and at dequeue and again at pack against one batch
// execution. A request that fails it never occupies a batch slot or
// skews the fill stats.
//
// The estimate only updates when batches execute, so a poisoned-high
// EWMA (one slow compile, a GC stall) with all-deadlined traffic could
// otherwise shed everything forever and never observe a fresh sample.
// To stay self-healing, the engine admits one probe request past the
// budget gate every probeInterval: the probe executes (or honestly
// expires), refreshing the estimate toward reality.
//
// # Accounting
//
// Whoever ends a request — the admission gate, the dispatcher, a
// worker, the shutdown drain, or the caller's own context — decides
// its outcome, but it is counted in exactly one place, where every
// call returns (conclude). So each validated call moves exactly one
// counter and their sum is the number of calls:
//
//	requests   outputs returned
//	errors     execution fault (a failed or panicking run; when a
//	          batch's run fails, only requests that also fail alone)
//	cancelled  context.Canceled, or ErrClosed from shutdown
//	rejected   ErrOverloaded: the lane's queue was full
//	shed       ErrOverloaded: the budget cannot cover the estimate
//	expired    ErrExpired or context.DeadlineExceeded
//
// Those counters, the batch and queue gauges, the latency histograms
// and the sessions' slab sums are declared once, in the exported
// table (metrics.go); /metrics, /stats and ResetStats all walk it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ErrClosed is returned by Infer after Close.
var ErrClosed = errors.New("serve: engine closed")

// ErrOverloaded reports that the engine refused a request to protect
// itself: the lane's admission queue was full, or the request's
// deadline budget cannot cover the estimated queue + execution time.
// Clients should back off and retry (the HTTP layer maps it to 503
// with a Retry-After hint).
var ErrOverloaded = errors.New("serve: overloaded")

// ErrExpired reports that a request's deadline budget ran out before
// it executed. The HTTP layer maps it to 504.
var ErrExpired = errors.New("serve: deadline exceeded")

// Priority selects a request's admission lane. The dispatcher always
// serves the interactive lane first, so under load the batch lane is
// the one that queues, sheds, and expires.
type Priority uint8

const (
	// PriorityInteractive is the latency-sensitive default lane.
	PriorityInteractive Priority = iota
	// PriorityBatch is the throughput lane: shed first under overload.
	PriorityBatch

	numLanes = 2
)

// String names the lane for stats and logs.
func (p Priority) String() string {
	if p == PriorityBatch {
		return "batch"
	}
	return "interactive"
}

// ParsePriority maps the wire names to a Priority; the empty string is
// interactive (the default lane).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// InputError reports a malformed request: a missing or unknown input
// name, a tensor that does not match its input's example shape, or an
// invalid priority. The HTTP layer maps it to 400; anything else from
// Infer is an execution fault.
type InputError struct{ msg string }

func (e *InputError) Error() string { return e.msg }

func inputErrorf(format string, args ...any) *InputError {
	return &InputError{msg: fmt.Sprintf(format, args...)}
}

// Options configures an Engine.
type Options struct {
	// Sessions is the worker-session pool size (default 1). Each
	// worker owns one runtime.Session; batches are executed by
	// whichever worker is free.
	Sessions int
	// MaxBatch caps how many requests one graph execution coalesces.
	// It is clamped to the signature's batch capacity (the graph's
	// batch-axis extent); 0 means "use the full capacity". It also
	// sets the batch ladder: the engine rebuilds the workload at every
	// power of two below the clamped MaxBatch and at MaxBatch itself
	// (the served graph when that is the full capacity), and runs each
	// batch on the smallest of those builds that holds it.
	MaxBatch int
	// MaxDelay bounds how long the dispatcher holds the first request
	// of a batch while waiting for more (default 2ms).
	MaxDelay time.Duration
	// Seed seeds the worker sessions (worker i gets Seed+i).
	Seed int64
	// Device selects the execution device (default CPU).
	Device runtime.Device
	// InterOpWorkers is the inter-op scheduler width each worker
	// session executes its plan with (default 1 = serial). Inter-op
	// parallelism composes with the session pool: Sessions spreads
	// independent batches, InterOpWorkers spreads independent
	// operations inside one batch, and results stay bit-identical to
	// serial execution.
	InterOpWorkers int
	// IntraOpWorkers is the real intra-op width of each worker
	// session's kernel pools (default 1 = serial kernels). Helpers
	// come from the shared process-wide worker pool, so the engine's
	// total execution goroutines stay bounded by that pool's size no
	// matter how many sessions or engines run — and results stay
	// bit-identical to serial execution (deterministic chunking and
	// reduction order; see tensor.Pool).
	IntraOpWorkers int
	// WorkerPool overrides the shared execution pool sessions lease
	// helpers from (default sched.Default()); tests use scoped pools.
	WorkerPool *sched.Pool
	// QueueLen caps each priority lane's admission queue (default
	// 4×MaxBatch). A full lane rejects new requests with
	// ErrOverloaded instead of queueing them — the queue cap is the
	// engine's hard bound on buffered work.
	QueueLen int
	// DefaultDeadline is the per-model deadline budget applied to
	// requests whose context carries no (or a later) deadline. Zero
	// means requests without a context deadline never expire or shed
	// on budget.
	DefaultDeadline time.Duration
	// Trace, when non-nil, enables request-scoped tracing: the
	// collector decides at admission whether a request is sampled (one
	// atomic increment; unsampled requests pay two nil checks), and
	// each sampled request yields a span tree — admission → queue →
	// batch → run → per-op children — retained in the collector's ring
	// for /debug/trace or -trace-dir export.
	Trace *telemetry.TraceCollector
}

// outcome is how one Infer call ended. The zero value is failed, so an
// error nobody classified counts as an execution fault.
type outcome uint8

const (
	failed    outcome = iota // execution fault
	served                   // outputs returned
	cancelled                // the caller gave up, or the engine shut down
	rejected                 // the lane's queue was full
	shed                     // the budget cannot cover the estimated wait
	expired                  // the deadline passed before execution
	numOutcomes
)

// String names the outcome for the span that marks a refused request.
func (o outcome) String() string {
	return [numOutcomes]string{"failed", "served", "cancelled", "rejected", "shed", "expired"}[o]
}

// response ends a request: outputs or an error, and the outcome the
// caller will count it as.
type response struct {
	outputs map[string]*tensor.Tensor
	err     error
	outcome outcome
}

// contextEnded is the response to a request whose context is over: a
// deadline counts as expired, anything else as the caller giving up.
func contextEnded(err error) response {
	if errors.Is(err, context.DeadlineExceeded) {
		return response{err: err, outcome: expired}
	}
	return response{err: err, outcome: cancelled}
}

// request is one queued inference call.
type request struct {
	inputs   map[string]*tensor.Tensor
	ctx      context.Context
	resp     chan response // buffered(1): workers never block on delivery
	enq      time.Time
	deadline time.Time // zero = no budget
	lane     Priority
	probe    bool // admitted past the budget gate to refresh the EWMA

	// trace is non-nil for the sampled 1-in-N: the request's span
	// tree, with rootSpan the whole-request span, admSpan the admission
	// span and queueSpan the open queue-wait span the executing worker
	// closes at batch start.
	trace     *telemetry.Trace
	rootSpan  telemetry.SpanID
	admSpan   telemetry.SpanID
	queueSpan telemetry.SpanID
}

// finish answers the request once; a duplicate answer (panic-recovery
// sweeping a batch that was partially delivered) is dropped rather
// than blocking on the full buffer.
func (r *request) finish(resp response) {
	select {
	case r.resp <- resp:
	default:
	}
}

// Engine serves one workload's inference signature to concurrent
// callers with dynamic micro-batching over a session pool. It is the
// sanctioned concurrent entry point to the runtime: callers on any
// goroutine call Infer; sessions stay confined to their workers.
type Engine struct {
	model    core.Model
	sig      core.Signature // the capacity signature: validates and unpacks
	rungs    []rung         // ascending batch sizes; the last is maxBatch
	maxBatch int
	maxDelay time.Duration
	deadline time.Duration // DefaultDeadline

	lanes     [numLanes]chan *request
	batches   chan []*request
	done      chan struct{}
	stopped   chan struct{} // closed when dispatcher+workers have exited
	closeOnce sync.Once

	// sessions are the worker sessions, retained so shutdown can Close
	// them — releasing each session's lease on the shared worker pool.
	sessions []*runtime.Session

	// pool is the shared worker pool the sessions lease helpers from;
	// claim is the engine's total lease claim on it (sessions ×
	// per-session helper claim). Both feed the /stats gauges and the
	// admission estimate, so engines sharing a pool shed cooperatively.
	pool      *sched.Pool
	claim     int
	leaseName string

	// lastProbeNano rations budget-gate probes: when every request
	// would shed, one per probeInterval is admitted anyway so the batch
	// EWMA keeps seeing fresh samples (see the package doc).
	lastProbeNano atomic.Int64

	// trace is the sampling trace collector (nil = tracing off).
	trace *telemetry.TraceCollector

	stats stats
}

// servable checks that m can be micro-batched and returns its inference
// signature and batch capacity: the model is Setup, implements
// core.Inferencer, does not couple examples across a batch wider than
// 1, and every batched input and output agrees on the batch extent.
func servable(m core.Model) (sig core.Signature, capacity int, err error) {
	if m.Graph() == nil {
		return sig, 0, fmt.Errorf("serve: model %s has no graph (call Setup first)", m.Name())
	}
	if _, ok := m.(core.Inferencer); !ok {
		return sig, 0, fmt.Errorf("serve: workload %s does not implement core.Inferencer", m.Name())
	}
	sig = m.Signature(core.ModeInference)
	if len(sig.Inputs) == 0 || len(sig.Outputs) == 0 {
		return sig, 0, fmt.Errorf("serve: workload %s has an empty inference signature", m.Name())
	}
	capacity = sig.BatchCapacity()
	if bc, ok := m.(core.BatchCoupled); ok && bc.BatchCoupled() && capacity > 1 {
		return sig, 0, fmt.Errorf(
			"serve: %s couples examples across the batch (its per-example outputs depend on batch composition); serve it unbatched by building with core.Config{Batch: 1} / -maxbatch 1",
			m.Name())
	}
	// Every input must have a batch axis; an output without one is a
	// whole-batch scalar and is never unbatched.
	check := func(kind string, specs []core.IOSpec, scalarOK bool) error {
		for _, s := range specs {
			switch {
			case s.BatchDim == core.BatchNone && scalarOK:
			case s.BatchDim == core.BatchNone:
				return fmt.Errorf("serve: %s %q has no batch axis; cannot micro-batch %s", kind, s.Name, m.Name())
			case s.BatchDim < 0 || s.BatchDim >= len(s.Shape()):
				return fmt.Errorf("serve: %s %q batch axis %d out of range for shape %v", kind, s.Name, s.BatchDim, s.Shape())
			case s.Shape()[s.BatchDim] != capacity:
				return fmt.Errorf("serve: %s %q batch extent %d != capacity %d", kind, s.Name, s.Shape()[s.BatchDim], capacity)
			}
		}
		return nil
	}
	if err = check("input", sig.Inputs, false); err == nil {
		err = check("output", sig.Outputs, true)
	}
	return sig, capacity, err
}

// rung is one batch size a micro-batch can run at: the inference
// signature of the workload built at that batch, and its outputs in
// fetch order, bound once.
type rung struct {
	size    int
	sig     core.Signature
	fetches []*graph.Node
}

func newRung(sig core.Signature) rung {
	r := rung{size: sig.BatchCapacity(), sig: sig}
	for _, out := range sig.Outputs {
		r.fetches = append(r.fetches, out.Node)
	}
	return r
}

// ladder builds the engine's rungs: m's inference subgraph rebuilt at
// each power of two below top and at top itself (core.Rebatch, so
// every rung reads m's variables). A rung at m's own capacity is m.
func ladder(m core.Model, sig core.Signature, top int) ([]rung, error) {
	var rungs []rung
	for b := 1; ; b = min(2*b, top) {
		rsig := sig
		if b < sig.BatchCapacity() {
			var err error
			if rsig, err = core.Rebatch(m, b); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			if got := rsig.BatchCapacity(); got != b {
				return nil, fmt.Errorf("serve: %s rebuilt at batch %d has batch capacity %d", m.Name(), b, got)
			}
		}
		rungs = append(rungs, newRung(rsig))
		if b == top {
			return rungs, nil
		}
	}
}

// withDefaults resolves the zero Options fields New documents defaults
// for, and clamps MaxBatch to the graph's batch capacity.
func (opts Options) withDefaults(capacity int) Options {
	opts.Sessions = max(opts.Sessions, 1)
	if opts.MaxBatch <= 0 || opts.MaxBatch > capacity {
		opts.MaxBatch = capacity
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 2 * time.Millisecond
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 4 * opts.MaxBatch
	}
	if opts.WorkerPool == nil {
		opts.WorkerPool = sched.Default()
	}
	opts.InterOpWorkers = max(opts.InterOpWorkers, 1)
	opts.IntraOpWorkers = max(opts.IntraOpWorkers, 1)
	return opts
}

// New builds and starts an engine for a Setup model. The model must
// implement core.Inferencer, and its inference-signature batched
// inputs must agree on their batch extent. Combine with
// core.Config.Batch to build the graph at the micro-batching window
// you want to serve. New also builds the batch ladder (see Options.
// MaxBatch), so m's type must be registered with core.Register.
func New(m core.Model, opts Options) (*Engine, error) {
	sig, capacity, err := servable(m)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults(capacity)
	rungs, err := ladder(m, sig, opts.MaxBatch)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		model:     m,
		sig:       sig,
		rungs:     rungs,
		maxBatch:  opts.MaxBatch,
		maxDelay:  opts.MaxDelay,
		deadline:  opts.DefaultDeadline,
		batches:   make(chan []*request),
		done:      make(chan struct{}),
		stopped:   make(chan struct{}),
		pool:      opts.WorkerPool,
		claim:     opts.Sessions * (opts.InterOpWorkers*opts.IntraOpWorkers - 1),
		leaseName: "engine/" + m.Name(),
		trace:     opts.Trace,
	}
	for lane := range e.lanes {
		e.lanes[lane] = make(chan *request, opts.QueueLen)
	}
	e.stats.reset()
	var workers sync.WaitGroup
	for i := 0; i < opts.Sessions; i++ {
		sessOpts := []runtime.Option{
			runtime.WithSeed(opts.Seed + int64(i)),
			runtime.WithLeaseName(e.leaseName),
			runtime.WithInterOpWorkers(opts.InterOpWorkers),
			runtime.WithIntraOpWorkers(opts.IntraOpWorkers),
			runtime.WithWorkerPool(opts.WorkerPool),
		}
		if opts.Device != nil {
			sessOpts = append(sessOpts, runtime.WithDevice(opts.Device))
		}
		sess := runtime.NewSession(m.Graph(), sessOpts...)
		e.sessions = append(e.sessions, sess)
		ws := newWorkerState(e, sess)
		workers.Add(1)
		go func() {
			defer workers.Done()
			for batch := range e.batches {
				e.runBatch(ws, batch)
			}
		}()
	}
	go func() {
		e.dispatch()
		workers.Wait() // workers finish the already-dispatched batches
		for _, sess := range e.sessions {
			sess.Close() // release each session's shared-pool lease
		}
		close(e.stopped)
	}()
	return e, nil
}

// Model returns the served workload.
func (e *Engine) Model() core.Model { return e.model }

// Signature returns the served inference signature.
func (e *Engine) Signature() core.Signature { return e.sig }

// MaxBatch returns the effective micro-batch cap.
func (e *Engine) MaxBatch() int { return e.maxBatch }

// DefaultDeadline returns the engine's per-request deadline budget
// (zero when unset).
func (e *Engine) DefaultDeadline() time.Duration { return e.deadline }

// requestDeadline resolves a request's deadline: the earlier of the
// context's deadline and now + DefaultDeadline. Zero means none.
func (e *Engine) requestDeadline(ctx context.Context, now time.Time) time.Time {
	dl, ok := ctx.Deadline() // the zero Time when !ok
	if own := now.Add(e.deadline); e.deadline > 0 && (!ok || own.Before(dl)) {
		return own
	}
	return dl
}

// estimatedWait predicts how long a request admitted to lane now would
// wait before its batch completes: queued-batches-ahead × the EWMA
// batch latency, plus one execution. Interactive requests only wait on
// interactive traffic (the dispatcher serves that lane first); batch
// requests wait on everything. When the shared worker pool is
// saturated — every engine on it is executing, helpers degrade to
// serial — the estimate doubles, which is how co-tenant engines shed
// cooperatively. A cold engine (no batch measured yet) predicts zero.
func (e *Engine) estimatedWait(lane Priority) time.Duration {
	depth := int(e.stats.qdepth[PriorityInteractive].Load())
	if lane == PriorityBatch {
		depth += int(e.stats.qdepth[PriorityBatch].Load())
	}
	est := time.Duration(depth/e.maxBatch+1) * e.stats.batchEWMA()
	if e.pool.Size() > 0 && e.pool.Busy() >= e.pool.Size() {
		est *= 2
	}
	return est
}

// worth is the one check of whether r still deserves a batch slot at
// now, given est — the wait it faces before its batch completes: its
// context must be live, its deadline ahead, and (unless it is the
// probe, whose job is to reach execution and refresh the estimate) its
// remaining budget must cover est. When it does not, the response that
// ends r is returned. An est of zero — a cold engine — never sheds.
func (e *Engine) worth(r *request, now time.Time, est time.Duration) (response, bool) {
	switch err := r.ctx.Err(); {
	case errors.Is(err, context.DeadlineExceeded):
		return response{err: ErrExpired, outcome: expired}, false
	case err != nil:
		return contextEnded(err), false
	case r.deadline.IsZero():
	case !now.Before(r.deadline):
		return response{err: ErrExpired, outcome: expired}, false
	case !r.probe && now.Add(est).After(r.deadline):
		return response{err: ErrOverloaded, outcome: shed}, false
	}
	return response{}, true
}

// vet is worth for a request already queued (the dispatcher at dequeue,
// the worker before it packs): the wait it faces is one batch
// execution, and a request not worth its slot is answered here.
func (e *Engine) vet(r *request, now time.Time) bool {
	end, ok := e.worth(r, now, e.stats.batchEWMA())
	if !ok {
		r.finish(end)
	}
	return ok
}

// Infer submits one single-example request on the interactive lane and
// blocks until its result, the context's cancellation, or engine
// shutdown. Inputs are keyed by signature input name; each tensor must
// have the input's ExampleShape (the placeholder shape with the batch
// axis removed). Infer takes ownership of the input tensors: a worker
// may still be packing them after a cancelled return, so the caller
// must not mutate or reuse them afterwards (pass fresh tensors per
// call, as the HTTP layer does). Outputs are the signature's batched
// outputs, one example each; whole-batch scalar outputs (losses) are
// omitted. Infer is safe for concurrent use from any number of
// goroutines.
//
// Infer never queues unboundedly: when the lane's admission queue is
// full, or the request's deadline budget cannot cover the estimated
// queue + execution time, it fails fast with ErrOverloaded; a request
// whose deadline has already passed fails with ErrExpired.
func (e *Engine) Infer(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	return e.InferPriority(ctx, inputs, PriorityInteractive)
}

// InferPriority is Infer on an explicit admission lane. Batch-lane
// requests are dispatched only when the interactive lane is empty and
// are shed first under overload.
func (e *Engine) InferPriority(ctx context.Context, inputs map[string]*tensor.Tensor, lane Priority) (map[string]*tensor.Tensor, error) {
	if err := e.validate(inputs, lane); err != nil {
		return nil, err
	}
	r := e.newRequest(ctx, inputs, lane)
	// Admission fails fast, cheapest check first — the caller never
	// blocks to learn the engine is overloaded.
	resp, refused := e.admit(r)
	if !refused {
		resp, refused = e.enqueue(r)
	}
	if !refused {
		resp = e.await(r)
	}
	return e.conclude(r, resp, refused)
}

// validate reports a malformed call as an InputError.
func (e *Engine) validate(inputs map[string]*tensor.Tensor, lane Priority) error {
	if lane >= numLanes {
		return inputErrorf("serve: unknown priority %d", lane)
	}
	for _, in := range e.sig.Inputs {
		t, ok := inputs[in.Name]
		if !ok || t == nil {
			return inputErrorf("serve: missing input %q (want %v)", in.Name, e.sig.InputNames())
		}
		want := in.ExampleShape()
		if !tensor.SameShape(t.Shape(), want) {
			return inputErrorf("serve: input %q has shape %v, want example shape %v", in.Name, t.Shape(), want)
		}
	}
	if len(inputs) > len(e.sig.Inputs) {
		for name := range inputs {
			if _, ok := e.sig.Input(name); !ok {
				return inputErrorf("serve: unknown input %q (want %v)", name, e.sig.InputNames())
			}
		}
	}
	return nil
}

// newRequest stamps the call with its arrival time and deadline and
// decides trace sampling, once per request: either an outer layer (HTTP
// admission) already minted a trace into the context, or — for direct
// engine callers — the collector draws a fresh 1-in-N sample.
// Unsampled requests pay only nil checks.
func (e *Engine) newRequest(ctx context.Context, inputs map[string]*tensor.Tensor, lane Priority) *request {
	now := time.Now()
	r := &request{
		inputs:   inputs,
		ctx:      ctx,
		resp:     make(chan response, 1),
		enq:      now,
		deadline: e.requestDeadline(ctx, now),
		lane:     lane,
	}
	if tr := telemetry.TraceFrom(ctx); tr != nil {
		r.trace = tr
	} else if e.trace != nil && !telemetry.TraceDecided(ctx) && e.trace.Sample() {
		r.trace = e.trace.New(e.model.Name())
	}
	if r.trace != nil {
		r.rootSpan = r.trace.StartSpanAt("request", 0, now)
		r.admSpan = r.trace.StartSpanAt("admission", r.rootSpan, now)
	}
	return r
}

// admit is the budget gate at the door: worth against the whole
// estimated wait. A request that would be shed takes the probe slot
// instead when one is due.
func (e *Engine) admit(r *request) (end response, refused bool) {
	end, ok := e.worth(r, r.enq, e.estimatedWait(r.lane))
	if !ok && end.outcome == shed && e.tryProbe(r.enq) {
		r.probe, ok = true, true
	}
	return end, !ok
}

// enqueue publishes r to its lane without blocking: a full lane
// rejects early rather than queue unboundedly.
func (e *Engine) enqueue(r *request) (end response, refused bool) {
	if r.trace != nil {
		// The queue span must exist before the request is published to
		// the lane channel: the batch worker closes it the moment it
		// picks the request up, and the send below is the only
		// happens-before edge between this goroutine and that worker.
		// On a failed send the never-waited queue span closes at ~zero
		// duration.
		r.trace.EndSpan(r.admSpan)
		r.queueSpan = r.trace.StartSpan("queue", r.rootSpan)
	}
	select {
	case e.lanes[r.lane] <- r:
		e.stats.qdepth[r.lane].Add(1)
		return end, false
	case <-e.done:
		return response{err: ErrClosed, outcome: cancelled}, true
	case <-r.ctx.Done():
		return contextEnded(r.ctx.Err()), true
	default:
		return response{err: ErrOverloaded, outcome: rejected}, true
	}
}

// await blocks for whoever ends r first: the engine's answer, the
// caller's context, or shutdown.
func (e *Engine) await(r *request) response {
	select {
	case resp := <-r.resp:
		return resp
	case <-r.ctx.Done():
		// The batch may still execute; the buffered resp channel lets
		// the worker complete without us, and its answer is never
		// counted.
		return contextEnded(r.ctx.Err())
	case <-e.stopped:
		// Dispatcher and workers have exited, so nothing will answer —
		// unless a response raced in just before shutdown, which finish
		// then leaves in place. (enqueue may legitimately publish
		// concurrently with Close: the buffered lane send and the closed
		// done channel are both ready, and select picks either.)
		r.finish(response{err: ErrClosed, outcome: cancelled})
		return <-r.resp
	}
}

// conclude is where every validated call returns, and the only place
// an outcome is counted — so one call moves exactly one counter no
// matter how many parties (its context, the dispatcher, a worker)
// decided its fate. A refused request's trace gets a zero-width span
// naming why.
func (e *Engine) conclude(r *request, resp response, refused bool) (map[string]*tensor.Tensor, error) {
	e.stats.outcomes[resp.outcome].Add(1)
	if resp.outcome == served {
		e.stats.latHist[r.lane].Observe(time.Since(r.enq))
	}
	if r.trace != nil {
		if refused {
			r.trace.EndSpan(r.admSpan)
			r.trace.AddSpan(resp.outcome.String(), r.rootSpan, 0, time.Now(), 0)
		}
		r.trace.EndSpan(r.queueSpan)
		r.trace.EndSpan(r.rootSpan)
		r.trace.Finish()
	}
	return resp.outputs, resp.err
}

// Close stops accepting requests, fails queued ones with ErrClosed,
// and waits for in-flight batches to finish.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.done) })
	<-e.stopped
}

// probeInterval rations the budget-gate probe admissions that keep the
// batch EWMA self-healing when everything else sheds.
const probeInterval = 100 * time.Millisecond

// tryProbe claims the probe slot if one is due (CAS so concurrent
// shedding callers admit at most one per interval).
func (e *Engine) tryProbe(now time.Time) bool {
	last := e.lastProbeNano.Load()
	return now.UnixNano()-last >= int64(probeInterval) &&
		e.lastProbeNano.CompareAndSwap(last, now.UnixNano())
}

// testHookDispatch, when non-nil, runs before the dispatcher looks for
// the first request of a batch. Tests install it before New — and
// clear it only after Close has joined the dispatch loop — to stall
// dequeueing while they build a deterministic backlog.
var testHookDispatch func()

// dispatch is the micro-batching loop, and the one place a request is
// dequeued: each turn takes the next request — interactive first,
// never blocking while either lane has one — or, with both lanes
// empty, waits on everything the batch in hand can still do. The two
// arms that move a batch along are nil channels until their phase: the
// first request kept arms the MaxDelay timer, the timer (or a full
// batch) arms the hand-off, and while no worker takes it the lanes
// stay live, so saturation tops the batch up to MaxBatch instead of
// running it under-filled. Every dequeue is vetted, so cancelled,
// expired and unserviceable requests never occupy a slot or skew the
// batch-fill stats.
func (e *Engine) dispatch() {
	defer close(e.batches)
	defer e.drain()
	var (
		batch   []*request
		timer   *time.Timer
		flush   <-chan time.Time  // nil until a request opens the window
		handoff chan<- []*request // nil until the window closes
	)
	for {
		if h := testHookDispatch; h != nil && len(batch) == 0 {
			h()
		}
		// Shutdown beats queued work: hand off what is collected, fail
		// the rest.
		select {
		case <-e.done:
			if len(batch) > 0 {
				e.batches <- batch
			}
			return
		default:
		}
		lanes := e.lanes
		if len(batch) == e.maxBatch {
			lanes = [numLanes]chan *request{} // full: only the hand-off is left
		}
		var r *request
		for _, lane := range lanes { // the priority rule: interactive first
			select {
			case r = <-lane:
			default:
				continue
			}
			break
		}
		if r == nil {
			select {
			case r = <-lanes[PriorityInteractive]:
			case r = <-lanes[PriorityBatch]:
			case <-flush:
				flush, handoff = nil, e.batches
			case handoff <- batch:
				batch, handoff = nil, nil
			case <-e.done:
			}
			if r == nil {
				continue
			}
		}
		e.stats.qdepth[r.lane].Add(-1)
		if !e.vet(r, time.Now()) {
			continue
		}
		batch = append(batch, r)
		switch len(batch) {
		case e.maxBatch: // MaxBatch 1 never waits
			if timer != nil {
				timer.Stop()
			}
			flush, handoff = nil, e.batches
		case 1:
			timer = time.NewTimer(e.maxDelay)
			flush = timer.C
		}
	}
}

// drain fails every still-queued request after shutdown. The
// dispatcher is the lanes' only receiver, so a non-empty lane cannot
// empty under it.
func (e *Engine) drain() {
	for lane, queue := range e.lanes {
		for len(queue) > 0 {
			r := <-queue
			e.stats.qdepth[lane].Add(-1)
			r.finish(response{err: ErrClosed, outcome: cancelled})
		}
	}
}

// workerState is one worker's execution kit, built once: its session
// (inference mode), which runs every rung, and per rung the feeds map
// binding a reusable rung-wide input buffer to each placeholder. Per
// batch, the steady-state path allocates only the per-request output
// examples.
type workerState struct {
	sess  *runtime.Session
	feeds []runtime.Feeds // indexed like Engine.rungs
}

func newWorkerState(e *Engine, sess *runtime.Session) *workerState {
	sess.SetTraining(false)
	ws := &workerState{sess: sess}
	for _, r := range e.rungs {
		feeds := make(runtime.Feeds, len(r.sig.Inputs))
		for _, in := range r.sig.Inputs {
			feeds[in.Node] = tensor.New(in.Shape()...)
		}
		ws.feeds = append(ws.feeds, feeds)
	}
	return ws
}

// runBatch executes one micro-batch on a worker: pack, run, unpack. A
// run that returns an error is retried one request at a time
// (isolate). A panic out of graph execution fails the batch's requests
// instead of killing the worker (and with it the process).
func (e *Engine) runBatch(ws *workerState, batch []*request) {
	var live []*request
	defer func() {
		if p := recover(); p != nil {
			fail(live, fmt.Errorf("serve: %s: panic during batch execution: %v", e.model.Name(), p))
		}
	}()
	start := time.Now()
	live, ri := e.pack(ws, batch, start)
	if len(live) == 0 {
		return
	}
	vals, err := e.run(ws, ri, live, start)
	switch {
	case err == nil:
		e.unpack(ri, live, vals)
	case len(live) == 1:
		fail(live, e.fault(err))
	default:
		e.isolate(ws, live)
	}
}

// isolate answers a batch whose run returned an error by running each
// of its requests alone on the smallest rung. A request whose own
// values fail the run — a word index past a vocabulary — fails alone;
// its batch-mates get the answers they would have had without it.
func (e *Engine) isolate(ws *workerState, live []*request) {
	for i := range live {
		one := live[i : i+1]
		ri := e.load(ws, one)
		vals, err := e.run(ws, ri, one, time.Now())
		if err != nil {
			fail(one, e.fault(err))
			continue
		}
		e.unpack(ri, one, vals)
	}
}

// fault wraps an execution error for the callers it fails.
func (e *Engine) fault(err error) error {
	return fmt.Errorf("serve: %s: %w", e.model.Name(), err)
}

// fail answers every request of a batch with an execution fault.
func fail(live []*request, err error) {
	for _, r := range live {
		r.finish(response{err: err})
	}
}

// pack is the last gate before a slot is spent — requests that died
// between dispatch and execution are skipped so they never skew fill —
// and then loads the survivors into a rung. It returns them in slot
// order — len(live) is the batch's fill, decided here and nowhere
// else — and the rung they are loaded into.
func (e *Engine) pack(ws *workerState, batch []*request, start time.Time) (live []*request, ri int) {
	live = batch[:0]
	for _, r := range batch {
		if !e.vet(r, start) {
			continue
		}
		live = append(live, r)
		wait := start.Sub(r.enq)
		ewmaUpdate(&e.stats.ewmaWaitUS, wait)
		e.stats.waitHist.Observe(wait)
		if r.trace != nil {
			r.trace.EndSpanAt(r.queueSpan, start)
		}
	}
	if len(live) == 0 {
		return live, 0
	}
	return live, e.load(ws, live)
}

// load copies live into the input buffers of the smallest rung that
// holds them, and returns that rung.
func (e *Engine) load(ws *workerState, live []*request) int {
	ri := slices.IndexFunc(e.rungs, func(r rung) bool { return r.size >= len(live) })
	for _, in := range e.rungs[ri].sig.Inputs {
		buf := ws.feeds[ri][in.Node]
		for i, r := range live {
			putExample(buf, in.BatchDim, i, r.inputs[in.Name])
		}
		// Slots past the fill keep stale rows from earlier batches;
		// zero just that tail (a full rung clears nothing).
		clearTail(buf, in.BatchDim, len(live))
	}
	return ri
}

// run executes rung ri's fetch set over its packed buffers (the same
// execution the workload's Inferencer performs) and feeds the
// batch's wall time since start into the admission estimate. Only when
// the batch carries a sampled request does it run with one-shot event
// capture, and replicates the batch → run → per-op subtree into every
// traced request: a batch rarely carries more than one, so the
// duplication is cheap and each trace stays self-contained. Op spans
// land on lane 1+Event.Worker, so a traced request renders its
// inter-op parallelism; request-level spans stay on lane 0.
func (e *Engine) run(ws *workerState, ri int, live []*request, start time.Time) ([]*tensor.Tensor, error) {
	var vals []*tensor.Tensor
	var err error
	fetches, feeds := e.rungs[ri].fetches, ws.feeds[ri]
	if !slices.ContainsFunc(live, func(r *request) bool { return r.trace != nil }) {
		vals, err = ws.sess.Run(fetches, feeds)
	} else {
		var events []runtime.Event
		runStart := time.Now()
		vals, events, err = ws.sess.RunTraced(fetches, feeds)
		runDur := time.Since(runStart)
		batchDur := time.Since(start)
		for _, r := range live {
			if r.trace == nil {
				continue
			}
			bs := r.trace.AddSpan("batch", r.rootSpan, 0, start, batchDur)
			rs := r.trace.AddSpan("run", bs, 0, runStart, runDur)
			for i := range events {
				ev := &events[i]
				r.trace.AddSpan(ev.Op, rs, 1+ev.Worker, ev.WallStart, ev.Wall)
			}
		}
	}
	ewmaUpdate(&e.stats.ewmaBatchUS, time.Since(start)) // the admission estimate
	return vals, err
}

// unpack splits rung ri's batched outputs into per-request responses.
func (e *Engine) unpack(ri int, live []*request, vals []*tensor.Tensor) {
	e.stats.recordBatch(len(live), e.rungs[ri].size)
	for i, r := range live {
		result := make(map[string]*tensor.Tensor, len(e.sig.Outputs))
		for oi, out := range e.sig.Outputs {
			if out.BatchDim == core.BatchNone {
				continue // whole-batch scalars are not per-request
			}
			result[out.Name] = getExample(vals[oi], out.BatchDim, i)
		}
		r.finish(response{outputs: result, outcome: served})
	}
}
