// Package repro is a from-scratch Go reproduction of "Fathom: Reference
// Workloads for Modern Deep Learning Methods" (Adolf et al., IISWC 2016).
//
// The repository contains a complete dataflow deep-learning framework
// (tensors, symbolic autodiff, an operation library, and a traced
// execution runtime), ten workloads built on top of it — the eight Fathom
// workloads plus the neuraltalk and attention extensions — and
// the characterization toolkit that regenerates every table and figure
// of the paper's evaluation. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// # Execution architecture
//
// The runtime compiles each fetch set into an execution plan
// (runtime.Plan) in five passes over one step-indexed IR
// (internal/runtime/compile.go): schedule (topological order), fuse (a
// connected set of element-wise ops whose values nothing outside the
// set reads, counted inside this plan, becomes one step), liveness
// (when each destination dies, which fetches must be cloned),
// constrain (the scheduling edges below) and assign (an offset in the
// session's one slab, tensor.Arena, for every destination, placed
// greedy by size so that disjoint lifetimes share floats; the slab is
// sized to the largest plan the session compiled). An operation is one of two kinds
// (graph.Op): a kernel, which writes its result into a destination it
// is handed, or a view (graph.ViewOp: Reshape, Identity), which
// computes nothing. One rule feeds the passes: a root is a step
// that owns storage — a kernel step owns its slot, a variable
// owns its tensor — and a view step references what its input
// references. Steady-state steps therefore run with near-zero heap
// allocation, and tensors returned from Session.Run are copied out of
// the slab, so results stay valid across steps.
//
// Fusion is a decision of the compiled plan, not of the graph: a
// model's one graph holds its backward pass, whose gradient taps read
// every gate of an LSTM cell, but an inference fetch set never runs
// them, so there each cell's 13-op tail of Slices, Sigmoids, Tanhs,
// Muls and an Add becomes two steps. Every element-wise op, fused or
// not, gradient accumulation (AddN) included, runs on one kernel, the
// block evaluator (tensor.Program), whose instructions are opcodes
// (tensor.ScalarFn) it runs as direct loops: an unfused op is a
// one-instruction program (tensor.PointwiseInto; AddN's n operands are
// Add's left fold, n−1 instructions), a fused step a longer one that
// gives each element the same float32 op sequence, so fused and unfused
// plans are bit-identical. An operand is
// read wherever it broadcasts to the output — a bias, a row, a scalar or
// a (1,S,d) table under (B,S,d) alike — so no operand shape keeps an op
// out of a fused set. The paper characterises TensorFlow 0.8, which did
// not fuse, so core.Run — the profile behind every figure — compiles
// unfused plans (runtime.WithUnfusedPlans); serving, training and the
// benchmark run fused.
//
// The session runs every operation itself, on the host's kernels; a
// runtime.Device only prices it for the simulated timeline — the CPU
// device at the kernel pool's makespan for the measured wall time, the
// modeled GPU at a roofline cost whatever the host measured.
//
// Plan execution has two interchangeable drivers. The default runs
// the sequential schedule on the session goroutine. With
// runtime.WithInterOpWorkers(n) (CLI: -interop) a dependency-counting
// parallel scheduler drains the plan's ready queue with the session
// goroutine plus up to n-1 helpers instead, over the edges the
// constrain pass records — data edges, variable hazard edges, a serial
// lane chaining Impure (stateful/RNG) operations in schedule order —
// and the anti-dependency edges of the assign pass, which gate a
// slot's sharing of floats on the completion of every reader of their
// previous value. The ready queue is a max-heap keyed by longest
// processing time to a sink, so the drain starts critical-path work
// first.
//
// # Shared worker pool and session lifecycle
//
// All execution helpers — intra-op kernel chunks, the inter-op drain,
// and every serve.Engine worker session — come from one process-wide
// bounded pool of persistent goroutines (internal/sched; CLI: -pool
// N). Nothing spawns goroutines per Run: a Session takes a Lease on
// the pool at creation, sized to its inter-op × intra-op width, and
// releases it in Session.Close (after which Run fails with
// runtime.ErrClosed; engines Close their sessions on shutdown). Helper
// acquisition is non-blocking and every parallel construct is written
// caller-participates-first, so pool exhaustion degrades to serial
// execution on the caller — never deadlock — and total execution
// goroutines stay bounded by the pool size no matter how many engines
// and sessions run concurrently.
//
// # Intra-op parallelism: real and modeled
//
// tensor.Pool runs the chunked loops of every kernel, and execution is
// always real: inline on the caller, in order while recording each
// region's chunk durations (runtime.WithChunkRecord, which every
// core.Run profile sets on the CPU), or on shared-pool goroutines
// (runtime.WithIntraOpWorkers; CLI: -intraop). A modeled width is
// computed from what execution recorded: profiling.AtWidth
// list-schedules one run's chunks over n lanes — the paper's Fig. 6
// axis, usable on any host, every width from one run. `fathom profile`
// puts modeled and measured speedup side by side per workload, with
// the model's error, their ratio.
//
// # Determinism contract
//
// Execution is bit-deterministic along two axes, enforced by the
// cross-workload harness in internal/models (determinism_test.go) and
// the scheduler property tests in internal/runtime:
//
//   - Replay: two sessions with the same WithSeed over the same model
//     produce bit-identical losses, fetches and variable updates.
//   - Schedule independence: results are bit-identical for every
//     intra-op × inter-op width combination. The serial-lane rule
//     makes this hold for stateful operations — anything Impure
//     (random sampling, dropout's saved mask, optimizer slot state)
//     executes in schedule order with mutual exclusion, so the RNG
//     consumption sequence never depends on scheduling; and anything
//     mutating a variable in place (graph.Mutator) is serialized
//     against every other access to that variable in schedule order.
//
// Intra-op width independence rests on tensor.Pool's chunking
// contract: chunk boundaries are a function of trip count and grain
// only — never of worker count or helper availability — For bodies
// are index-pure (each chunk writes only its own output range), and
// the one reduction kernel behind Sum, Mean, Max and the sums back to a
// broadcast or tiled shape (tensor.ReduceInto, tensor.SumToInto)
// combines per-chunk partials in ascending chunk order at every width
// including 1. Pool width is a
// constructor argument (a session builds its pools once its options
// have run), and chunks do not depend on it, so one chunk record
// prices every modeled width.
//
// Inter-op timing is likewise computed from what execution measured:
// op times are list-scheduled over n modeled worker lanes and the
// session clock advances by the simulated makespan, so the
// profiler reports achieved and achievable (critical-path) inter-op
// speedup per workload — `fathom profile -interop N` — even on a
// single-core host.
//
// # Kernels: one GEMM, one convolution lowering, one SIMD tile
//
// tensor.MatMul runs every product, whatever its shape, on one tiled
// GEMM that packs A and B panels into contiguous scratch ahead of one
// micro kernel; no shape rule picks a second kernel. On the smallest
// products the suite runs most often — per-head attention, 12×8×12 and
// 12×12×8 — it is 2–4× faster than the streaming loops it replaced.
// An empty product returns at once (k = 0 writes zeros, or under acc
// leaves the destination as it was). Bᵀ is packed by a tiled
// transpose, eight B rows per pass, so a few-row product with B stored
// transposed does not pay a strided scalar transpose (a 256×128 panel:
// about 16 µs, against 65 µs element by element). A slab whose tile grid does
// not split runs its tile loop on the caller without building a closure
// (Pool.inline), so once pool scratch has grown a width-1 product
// allocates nothing. The cost of one kernel falls on builds without the
// AVX2 tile (-tags purego, non-amd64): a product of one to three rows
// runs a whole four-row Go strip against zero rows of packed A, so
// 2×512×512 with B transposed takes 3–5× as long there (about 170 →
// 540–830 µs on a 2-vCPU x86 host). No benchmark workload runs that
// build, and it is not worth a per-build shape rule. All three
// convolution passes run on that GEMM through one lowering over the
// patch matrix col (one row per output position, its receptive field
// in (ky, kx, c) order, gathered in row blocks of at most 1 MB of
// scratch): forward out = col·W, back-filter dW = colᵀ·dY accumulated
// over the row blocks, back-input dX = col2im(dY·Wᵀ), with col2im a
// gather over image rows so parallel chunks never share a destination.
// A 1×1 unit-stride unpadded convolution skips the gather: its patch
// matrix is the input. Per output element the products meet in the
// order the direct loop nests visit them, and a padded tap contributes
// a zero where a loop nest skips, so on finite data the lowered passes
// reproduce those loops bit for bit — the loops live on in
// conv_test.go as the oracles, with a fuzz target (FuzzConvLowering)
// driving arbitrary geometry at both.
//
// The micro kernel works on strips of four C rows. On amd64 with AVX2
// (checked once with CPUID and XGETBV) the strip's 16- and 8-column
// tiles run in Go assembly; whatever columns remain, and every strip on
// other hosts or under -tags purego, run a 4×2 register tile in Go; a
// last strip of fewer than four rows runs as a full strip against zero
// rows of packed A on a stack tile. The assembly is bit-identical to
// the Go tile by construction, not by tolerance: its lanes run across
// output columns, so a lane is one output element and nothing is ever
// summed across lanes, and each k step is a VMULPS followed by a VADDPS
// — no FMA — which is the Go tile's one rounded multiply and one
// rounded add (the Go tile's products are written float32(a*b), which
// forbids the compiler to fuse them on any target; FusedAttention has
// no products of its own, it runs on this GEMM). Both tiles therefore compute each element
// as the same ascending-k chain, and which tile runs a column, like the
// choice of width, is invisible in the result bits; the determinism
// harness runs on both builds in CI.
//
// Local response normalization (AlexNet's LRN) is a tensor kernel too
// (tensor.LRNInto, tensor.LRNGradInto). Per pixel the squares are
// taken once and every channel's window sum is its own ascending
// float32 chain; scale^−β for β = 0.75 — what every model passes — is
// 1/(√s·√√s) in float32, three correctly rounded steps within a few
// ulps of the float64 power that any other β still takes; and the
// gradient is a gather over the forward output it is handed,
// dx[c] = g[c]·s[c]^−β − (2αβ/n)·x[c]·Σ_{c'∈win(c)} g[c']·y[c']/s[c'],
// so it needs no second power and no scatter. Pixels are independent
// and chunks own whole pixels, so width cannot reach the bits. The
// per-element math.Pow loops these replaced (a third of an alexnet
// training step) live on in lrn_test.go as the tolerance oracle.
//
// # Kernel tier 2
//
// The blocked GEMM decomposes the output into a 2-D grid of
// blockM×blockN tiles — row blocks × column panels — and the tiles of
// one reduction slab form a single flat parallel region, so big square
// and tall/skinny products alike expose mBlocks×panels independent
// work units instead of the former row-only split inside one column
// panel. B panels are packed once per slab on the calling goroutine
// and shared read-only by every lane; each lane packs A into per-lane
// scratch. Column panels are grouped so that a short-and-wide product,
// a single row block, still splits over its panels: single-row
// inference GEMMs parallelize too. Tile grid, panel groups
// and chunk boundaries are pure functions of shape, and every output
// element accumulates the same products in the same ascending-slab
// order at every width, so the decomposition is invisible in the
// result bits (BENCH_kernels.json tracks the tiled kernel against the
// retained row-only baseline, with scaling columns only at widths the
// recording host has processors for).
//
// Epilogue fusion is the plan's fuse pass too, not a graph rewrite: a
// fused set of element-wise ops may have one head, any kernel that is
// neither Impure nor a Mutator and whose value only the set reads, as
// a value and at the set's shape. The head runs first into the step's
// slot and the block evaluator then applies the bias add, the
// activation and whatever else the set holds to each output block in
// turn, reading the slot in place, over the same float sequence as the
// unfused ops' one-instruction programs, so a GEMM or convolution and its
// epilogue cost one pass over the slot and stay bit-identical to the
// unfused plan. The gates are the fuse pass's own (compile.go): gradient
// taps that read a pre-activation keep it out of a training plan's sets
// (ReluGrad reads the relu's output, so Conv2D+Add+Relu still fuses), fetched
// values stay, and a step joins a set only if no update rewrites a
// variable it reads between it and the set's output — which a training
// plan's updates, all after its forward pass, never do. A headed step
// traces as its members joined with "+" (Conv2D+Add+Relu) in its
// head's class. Graphs themselves keep TensorFlow 0.8's op types, so
// the unfused profiles report MatMul and Add, never MatMul+Add.
//
// Reductions are one kernel over one layout: the input's axes coalesce
// into alternating reduced and kept blocks, and one chunk rule splits
// the outermost block into chunks of at least 4096 inputs. A kept
// outermost block gives each chunk its own outputs, each folded in
// ascending input order; a reduced one folds chunk partials combined in
// ascending chunk order. Max folds v > m from its seed, so it skips NaN
// wherever it sits; every kind is bit-identical at every width. Optimizer
// slot state (momentum/RMSProp/Adam/Adagrad accumulators, plus Adam's
// step counter) lives in "<var>/slot/<name>" graph variables, so
// checkpoints capture the full optimizer trajectory and resumed runs
// stay bit-identical for every optimizer. Finally, every kernel writes
// a destination it never reads and therefore forbids aliasing it with
// an input; for MatMulInto, ReduceInto and SoftmaxInto the debug guard
// tensor.AliasChecks turns violations into panics instead of silent
// corruption (the tensor test binary enables it for every kernel
// invocation).
//
// # Fused attention
//
// tensor.FusedAttention executes the scaled-dot-product attention
// chain Softmax(Q·Kᵀ·scale)·V as one kernel over blocks of R =
// min(S, 64) query rows: for each (group, row block) unit
// (parallelized over the shared pool like any other kernel) it
// computes the R×S score block Q_blk·Kᵀ with the one GEMM into lane
// scratch, scales and softmaxes each row in place, and computes
// O_blk = P_blk·V with the GEMM again, straight into the output. The
// products run on the executing lane, packing into that lane's own
// scratch, and open no nested region. Scratch is O(R·S) per lane — the
// (G,S,S) score and probability matrices are never materialized, which
// removes the naive chain's dominant memory traffic, and the kernel
// does not pay the chain's per-op dispatch (BENCH_kernels.json tracks
// the fused-over-naive ratio, at least 1.3× on its three shapes at
// width 1, and the bytes eliminated). Its two products are the naive
// chain's own GEMM, and the scale multiply and softmax replay the
// chain's max/exp/sum/normalize in the same ascending order, so fused
// and unfused are bit-identical at every intra-op width, including
// rows containing ±Inf masks (FuzzAttention poisons Q and K with ±Inf,
// NaN and -0).
//
// At the graph level, ops.NaiveAttention builds the unfused reference
// chain and graph.FuseAttention (pass 4 of graph.Optimize)
// pattern-matches BatchMatMul→scalar-Mul→Softmax→BatchMatMul with a
// rank-3 (0,2,1) transpose on K and rewrites it in place to one
// FusedAttention node, under gates of its own (single-reader
// intermediates, graph-wide; no Impure/Mutator; no kept/fetched
// nodes). Training graphs fuse before gradient construction: the fused
// op's Grad recomputes the probability matrix in its own backward
// subgraph, so dQ/dK/dV match the naive chain's autodiff bitwise. The
// attention workload (internal/models/attention: a multi-head
// self-attention encoder block with residual/layer-norm structure and
// a position-wise FFN on a synthetic sequence-reversal task) drives
// the fused path end to end through training, the determinism harness,
// serve, dist, and fuse; `-heads N` overrides its head count.
//
// # Serving architecture
//
// The standard model interface is request-driven: every workload
// publishes a core.Signature per mode (named input placeholders and
// named output nodes, each with an explicit batch axis) and implements
// the core.Inferencer / core.Trainer capabilities; self-feeding
// profile steps go through the core.Step adapter. On top of that
// contract, internal/serve provides the concurrent serving subsystem:
// serve.Engine owns a pool of single-goroutine runtime.Sessions over
// one shared graph and runs every request through one lifecycle, one
// function per step (the package comment is the reference):
//
//	validate → admit → enqueue → dispatcher window → pack → run → unpack → outcome
//
// The caller's goroutine validates the inputs against the signature,
// passes the admission gate and publishes the request to its priority
// lane without blocking. One dispatcher goroutine — a single loop over
// a single receive — dequeues interactive-first and collects a
// micro-batch: the first request it keeps opens a MaxDelay window, the
// batch leaves when it is full or the window closes, and while every
// worker is busy it keeps filling to MaxBatch. A worker packs the
// batch into the smallest rung of the engine's batch ladder that holds
// it — the workload rebuilt by core.Rebatch at each power of two below
// MaxBatch, sharing the served model's variables, then the served
// graph itself — zero-padding only that rung's unfilled slots,
// executes one compiled-plan run, and unpacks per-request outputs; a
// run that returns an error is retried one request at a time, so one
// bad request fails alone. The caller counts the outcome as it
// returns. Context
// cancellation is honoured at every step. serve.Server and `fathom
// serve` expose any registered workload over HTTP/JSON (POST
// /v1/models/<name>:infer, GET /v1/models, /healthz, /stats). What the
// engine exports — outcome counters, batch and queue gauges, latency
// histograms, arena sums, lease grant — is declared once, in one table
// that /metrics, /stats and ResetStats all walk; /stats additionally
// carries the shared worker pool's busy/spawned gauges and each
// engine's lease claim, the signals a load-shedding layer keys off.
//
// # Serving robustness
//
// Nothing in the serving path queues unboundedly. Each engine runs two
// priority lanes — interactive (the default) and batch — each a
// bounded admission queue (Options.QueueLen); a full lane fails fast
// with serve.ErrOverloaded instead of blocking. A request's deadline
// budget is the earlier of its context deadline and the engine's
// Options.DefaultDeadline. One check decides whether a request is
// still worth a batch slot — context live, deadline ahead, remaining
// budget covering the estimated wait — and it runs at admission, when
// the dispatcher dequeues the request, and again before a worker packs
// it, so cancelled, expired and unserviceable requests never occupy a
// slot or skew batch-fill stats. The engine tracks an EWMA of batch
// execution latency; at admission the estimate is
// queued-batches-ahead × that EWMA (only interactive traffic for
// interactive requests: the dispatcher always drains that lane first,
// so batch traffic queues, sheds, and expires first), doubled when the
// shared worker pool is saturated, which is how co-tenant engines on
// one pool shed cooperatively; once queued it is one batch execution.
// A rationed probe admission (one per 100ms past the budget gate)
// keeps the estimate self-healing when it spikes above every deadline.
//
// Accounting invariant: whoever ends a request decides its outcome,
// but it is counted once, where the call returns — so every validated
// call moves exactly one of six counters and they sum to the calls:
// requests (outputs returned), errors (execution fault), cancelled
// (context.Canceled, or serve.ErrClosed at shutdown), rejected
// (ErrOverloaded, lane full), shed (ErrOverloaded, budget below the
// estimate) and expired (serve.ErrExpired or context.DeadlineExceeded).
// The HTTP layer maps the taxonomy to a machine-readable error contract
// ({"error", "code"}: invalid_input 400, overloaded 503 + Retry-After,
// deadline_exceeded 504, closed 503, internal 500), and /stats reports
// the counters, queue-depth and queue-wait gauges, and per-lane
// p50/p99/p999.
//
// internal/loadgen is the open-loop traffic harness that proves the
// contract: seeded Poisson or uniform arrivals at a target QPS,
// submitted on schedule regardless of completion (closed-loop clients
// hide overload by self-throttling), with a mixed-priority lane split.
// `fathom loadtest` measures closed-loop capacity, then drives
// 0.5×/1×/2× of it and persists goodput (completions inside the
// deadline), shed rate, and per-lane latency quantiles as
// BENCH_serve.json — the serving perf trajectory across PRs.
//
// # Data-parallel training
//
// internal/dist is the suite's training engine and holds its one step
// loop. A replica executes a program (dist.Program): a training graph
// plus the fetch/feed surface of one step — a loss node of K ≥ 1
// elements, raw gradient nodes, named input placeholders, a
// fed-gradient apply node and a seed-keyed batch sampler. dist.New
// builds N replicas of a registry workload from the surface
// nn.BuildTraining records (nn.TrainPlan), each with its own graph and
// session, driven by `fathom train -replicas N`. A global training
// step is decomposed into a canonical grid of micro-batches ("chunks",
// dataset.Partition) whose size is fixed per run — independent of the
// replica count — and replicas own contiguous ascending chunk ranges.
// Per chunk, a replica reseeds its session RNG and draws its batch
// from a generator keyed by dataset.ChunkSeed over (seed, step, chunk)
// (core.TrainSampler), then fetches the loss and raw parameter
// gradients — forward and backward only, no variable is touched. The
// all-reduce then combines the per-chunk gradients of each parameter in
// fixed ascending-replica, ascending-chunk float32 order — exactly
// ascending order over the chunk grid — and scales by 1/chunks, as one
// element-wise program (tensor.Program: an Add fold, then a Mul) per
// parameter; then every replica applies the identical combined update through the program's
// fed-gradient placeholders, keeping all replica variables bitwise
// identical forever.
//
// The resulting contract extends the determinism harness: for a fixed
// global batch, chunk count and seed, losses and final variables are
// bit-identical across replica counts {1, 2, 4} and across replica ×
// intra-op widths — the replica count changes only the partition,
// never the math. Replicas and the all-reduce execute on one
// tensor.Pool per trainer, a client of the shared worker pool under the
// usual rules (leases, caller-participates-first, degrade-to-serial on
// exhaustion), so
// execution goroutines stay bounded by the pool size; checkpoints (a
// step header carrying the chunk grid and seed, validated on load,
// plus the variable checkpoint — optimizer slots included) restore at
// any replica count dividing the chunk grid with bit-identical
// continuation. Every step records its sample/grad/reduce/apply walls
// in a telemetry.PhaseRing, which also keeps their running sum;
// `fathom train` reads that sum to report achieved wall speedup
// against the Amdahl bound of the run's own phase structure
// (profiling.TrainScaling), live-checks the bit-identity invariant, and
// with -trace prints the same runs' per-step phase log.
//
// # Horizontally fused training
//
// internal/fuse adds the HFTA-style fourth scaling axis, and it is a
// graph transform, not a second trainer: instead of running K training
// instances side by side (K graphs, K sessions, K GEMMs per layer),
// fuse.New builds one array-batched graph in which every parameter,
// gradient, and optimizer update is stacked along a leading fusion
// axis of size K, so a single batched matrix multiply
// (ops.BatchMatMul) — and a single arena, plan, and session — serves
// all K trainees at once, then hands that graph to the dist engine as
// the program of one replica whose loss has K lanes. The transform
// works on any trainable workload without out-of-graph per-step
// state: shared structure (placeholders, constants, non-parameter
// state, the RNG source lane) is computed once and broadcast,
// per-trainee structure is lifted onto the fusion axis, and the impure
// lane's schedule order is preserved so one shared dropout mask keeps
// RNG draw-count parity with a standalone run. The stateful ops have no
// fused twins: internal/ops holds one optimizer apply-op over one table
// of five update rules, whose target is a row of lanes with a learning
// rate each — an ordinary variable is the one-lane case, a fused update
// is the K-lane call — and one dropout op whose mask spans the
// per-trainee shape however many lanes sit in front of it; the recipe
// (optimizer → rule and constants, clip → apply → group) is written
// once, in internal/models/nn, for TrainOp, the fed-gradient path and
// the fused stack alike. Trainees may diverge
// only through per-trainee learning-rate scales (Options.LRScales),
// which is the hyperparameter-search use case: K learning rates
// explored for the price of roughly one run. fuse.Array is the engine
// plus the per-trainee views (Losses(k), TraineeParams(k)); its
// checkpoints are the engine's, so a fused image refuses a different
// seed, chunk grid or width.
//
// The fused determinism contract extends the harness once more: each
// trainee's loss trajectory and final variables are bit-identical to
// a standalone run with the same seed, chunk grid, and learning-rate
// scale, across widths K ∈ {1, 2, 4} × intra-op {1, 4}. This holds by
// construction — fused kernels iterate the fusion axis invoking the
// standalone kernel on contiguous per-trainee views, and the chunk
// protocol (reseed, ChunkSeed sampling, ascending-chunk float32
// gradient accumulation, fed-gradient apply) is internal/dist's own
// step loop, not a copy of it. Because the loop special-cases neither
// axis, N replicas × K lanes also holds (pinned by an in-package test,
// not yet exposed on the CLI). `fathom train -fuse K`
// trains the fused array next to the data-parallel baseline; the
// tracked throughput numbers for both (dist.scaling_efficiency,
// fuse.vs_standalone) come from bench/'s train-dist and train-fuse
// workloads.
//
// # Adaptive pool leases
//
// Pool leases are occupancy-driven rather than static. Every tenant —
// plain sessions, serve engines ("engine/<model>"), dist trainers
// ("dist/<model>"), fused arrays ("fuse/<model>") — registers a named
// lease recording what it wants; while total wants fit the pool,
// everyone gets a full grant. When tenants oversubscribe the pool, a
// time-gated renegotiation on the TryRun path water-fills grants over
// each lease's measured demand (recent peak concurrency plus pressure
// from denied acquisitions) with a floor of one helper, so mixed
// tenants sharing one pool converge on their actual usage instead of
// their declared width and none starves (raced in CI by the
// mixed-tenant test: a serving engine and a fused trainer on one
// pool, both making progress, goroutines bounded). Grants are
// advisory caps on helper acquisition — degrade-to-serial still
// applies — and /stats reports per-tenant want/granted/active so the
// renegotiation is observable.
//
// # Observability
//
// internal/telemetry unifies the process's metrics, traces, and
// training-phase timings. The metrics registry is scrape-time only:
// every series is a reader (CounterFunc/GaugeFunc over atomics the
// subsystems already maintain, Histogram over the log-bucketed
// LogHistogram generalized out of serve's stats), so registration
// adds nothing to the request hot path. A serving process exposes the
// registry in Prometheus 0.0.4 text format at /metrics — serve
// admission/shed/latency families per model, shared worker-pool
// gauges, per-engine slab sizes, and dist/fuse training
// throughput — next to the JSON /stats endpoint (which also carries
// slab and queue-wait quantile blocks).
//
// Request tracing samples at admission: `fathom serve -tracesample N`
// traces every Nth request end to end, the decision made exactly once
// per request and carried via context through queue wait, batch
// packing, and the run, so unsampled requests never touch a trace. A
// sampled request yields a span tree — request, admission, queue,
// batch, run, and one child per executed op on its worker lane,
// reusing the runtime's Event capture — collected in a bounded ring
// and exported as Chrome trace-event JSON, either periodically to
// -tracedir or one-shot via /debug/trace (load chrome://tracing or
// Perfetto). -pprof mounts net/http/pprof under /debug/pprof/.
// Training gets the same treatment from the loop side: dist and fuse
// trainers record per-step sample/grad/reduce/apply phase timings in
// a fixed ring, scraped through the registry and printed as a phase
// table by `fathom train -trace`.
//
// The overhead contract is <2%: the full stack — registry populated
// plus tracing at the default 1/1000 — must stay within 2% of the
// bare engine on the BenchmarkServe workload, measured as CPU per
// request and enforced in CI (TELEMETRY_OVERHEAD_GATE). The measured
// budget behind the default rate: a traced request costs ~15µs of CPU
// for its ~50 spans, so 1/1000 amortizes below the noise floor while
// 1/10 costs a measurable ~18%. Tracing perturbs timings, never
// results — the determinism contract holds with telemetry on.
package repro
