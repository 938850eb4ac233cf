// Package runtime executes dataflow graphs: the analogue of the
// TensorFlow runtime the paper instruments. It provides sessions,
// per-operation tracing on a simulated timeline, and two devices —
// a CPU whose op timings come from measured kernels under the virtual
// thread pool, and a modeled GPU using a roofline cost model (the
// substitution for the paper's GTX 960; see DESIGN.md §4.2).
//
// # Compiled execution plans
//
// The first Run of a fetch set compiles it into a Plan: the transitive
// dependencies in topological order, plus a static buffer assignment.
// Compilation performs liveness analysis over the schedule — tracking
// which operation last reads each intermediate, and which values may
// alias which buffers through view-producing operations — and assigns
// every operation that implements graph.IntoOp a destination slot in a
// size-bucketed buffer arena (tensor.Arena). Two intermediates with
// disjoint lifetimes share one buffer, and because plans are cached on
// the session, steady-state steps execute with near-zero heap
// allocation: operations write into their preassigned slots through
// the ForwardInto fast path (see IntoRunner).
//
// Tensors returned from Run never alias arena memory: any fetch whose
// value may reach an arena slot is deep-copied on the way out
// (copy-on-fetch), so callers can hold results across subsequent Runs.
// Operations that cannot run into a preassigned buffer (views such as
// Reshape, stateful random ops) keep the allocating Forward path, and
// the liveness analysis conservatively treats their outputs as aliases
// of every input.
//
// # Parallelism and the shared worker pool
//
// Plans also record the dependency structure of a parallel scheduler:
// with WithInterOpWorkers(n) a Run drains the plan's LPT-ordered
// ready queue with the session goroutine plus up to n-1 helpers
// leased from the process-wide bounded worker pool (internal/sched)
// while staying bit-identical to sequential execution — see sched.go
// for the scheduler and the determinism contract (serial Impure lane,
// variable hazard edges, gated arena reuse). WithIntraOpWorkers(n)
// additionally makes every kernel pool execute its chunks on shared-
// pool goroutines (tensor.Pool's real parallel strategy) instead of
// modeling the speedup. Sessions lease their helper claim at creation
// and release it in Close; no goroutines are spawned per Run.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// ErrClosed is returned by Run after Session.Close.
var ErrClosed = errors.New("runtime: session closed")

// Event records one operation execution on the session's simulated
// timeline. Durations are device-modeled (see Device).
type Event struct {
	Node  *graph.Node
	Op    string        // operation type name
	Class graph.OpClass // Figure-3 class
	Start time.Duration // simulated start since session creation
	Dur   time.Duration // simulated duration
	Step  int           // session run counter when executed
	// Worker is the inter-op lane that executed the operation (always
	// 0 under serial execution; see WithInterOpWorkers).
	Worker int
	// Wall is the measured host wall time of the operation, next to
	// the device-modeled Dur.
	Wall time.Duration
	// WallStart is the absolute host time the operation started —
	// with Wall and Worker it reconstructs the measured execution
	// timeline (one lane per inter-op worker) next to the simulated
	// one, and lets serving traces nest op spans under request spans.
	WallStart time.Time
	// CP is the operation's critical-path finish within its run: Dur
	// plus the longest Dur-weighted chain of semantic scheduling
	// constraints (data, variable hazard and serial-lane edges)
	// feeding it. The run's maximum CP is its critical path — the
	// lower bound on makespan under unlimited inter-op workers and
	// unconstrained buffers for any schedule the determinism contract
	// permits, which profiling turns into the achievable inter-op
	// speedup of the workload (independent of the traced width).
	CP time.Duration
}

// Device turns an operation invocation into an output tensor and a
// modeled duration.
type Device interface {
	Name() string
	Run(ctx *graph.ExecContext, n *graph.Node, in []*tensor.Tensor) (*tensor.Tensor, time.Duration, error)
}

// IntoRunner is implemented by devices that support the
// allocation-free fast path: executing a graph.IntoOp into a
// plan-assigned destination buffer. Both built-in devices implement
// it; plans fall back to the allocating Device.Run path when the
// session's device does not.
type IntoRunner interface {
	RunInto(ctx *graph.ExecContext, n *graph.Node, in []*tensor.Tensor, out *tensor.Tensor) (time.Duration, error)
}

// CPUDevice executes kernels through the virtual thread pool and
// reports the pool's simulated parallel time (measured chunk makespan;
// see tensor.Pool).
type CPUDevice struct{}

// Name implements Device.
func (CPUDevice) Name() string { return "cpu" }

// Run implements Device.
func (CPUDevice) Run(ctx *graph.ExecContext, n *graph.Node, in []*tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
	ctx.Pool.ResetOp()
	t0 := time.Now()
	out, err := n.Op().Forward(ctx, in)
	wall := time.Since(t0)
	return out, ctx.Pool.OpTime(wall), err
}

// RunInto implements IntoRunner.
func (CPUDevice) RunInto(ctx *graph.ExecContext, n *graph.Node, in []*tensor.Tensor, out *tensor.Tensor) (time.Duration, error) {
	ctx.Pool.ResetOp()
	t0 := time.Now()
	err := n.Op().(graph.IntoOp).ForwardInto(ctx, in, out)
	wall := time.Since(t0)
	return ctx.Pool.OpTime(wall), err
}

// GPUDevice executes kernels on the CPU for numerical correctness but
// reports a modeled duration launch + max(flops/PeakFlops,
// bytes/PeakBytes): a roofline model calibrated to a GTX-960-class
// part. Operations expose flop/byte counts through graph.Coster; other
// ops get a byte-dominated default.
type GPUDevice struct {
	// PeakFlops is the peak arithmetic throughput in FLOP/s.
	PeakFlops float64
	// PeakBytes is the peak memory bandwidth in bytes/s.
	PeakBytes float64
	// Launch is the fixed kernel-launch overhead per operation.
	Launch time.Duration
	// Efficiency derates the peaks (real kernels do not hit roofline).
	Efficiency float64
}

// NewGTX960 returns a GPU device modeled on the paper's NVidia GeForce
// GTX 960: ~2.3 TFLOP/s fp32, ~112 GB/s, ~5µs launch overhead, with a
// 35% roofline efficiency typical of 2016-era cuDNN kernels.
func NewGTX960() *GPUDevice {
	return &GPUDevice{
		PeakFlops:  2.3e12,
		PeakBytes:  112e9,
		Launch:     5 * time.Microsecond,
		Efficiency: 0.35,
	}
}

// Name implements Device.
func (d *GPUDevice) Name() string { return "gpu" }

// modelTime computes the roofline duration for executing n.
func (d *GPUDevice) modelTime(n *graph.Node) time.Duration {
	inShapes := make([][]int, len(n.Inputs()))
	for i, x := range n.Inputs() {
		inShapes[i] = x.Shape()
	}
	var flops, bytes int64
	if c, ok := n.Op().(graph.Coster); ok {
		flops, bytes = c.Cost(inShapes, n.Shape())
	} else {
		var b int64
		for _, s := range inShapes {
			b += int64(tensor.SizeOf(s))
		}
		b += int64(tensor.SizeOf(n.Shape()))
		bytes = b * 4
		flops = int64(tensor.SizeOf(n.Shape()))
	}
	eff := d.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	ft := float64(flops) / (d.PeakFlops * eff)
	bt := float64(bytes) / (d.PeakBytes * eff)
	t := ft
	if bt > t {
		t = bt
	}
	return d.Launch + time.Duration(t*float64(time.Second))
}

// Run implements Device.
func (d *GPUDevice) Run(ctx *graph.ExecContext, n *graph.Node, in []*tensor.Tensor) (*tensor.Tensor, time.Duration, error) {
	out, err := n.Op().Forward(ctx, in)
	if err != nil {
		return nil, 0, err
	}
	return out, d.modelTime(n), nil
}

// RunInto implements IntoRunner.
func (d *GPUDevice) RunInto(ctx *graph.ExecContext, n *graph.Node, in []*tensor.Tensor, out *tensor.Tensor) (time.Duration, error) {
	if err := n.Op().(graph.IntoOp).ForwardInto(ctx, in, out); err != nil {
		return 0, err
	}
	return d.modelTime(n), nil
}

// Feeds maps placeholder nodes to their input tensors for one Run.
type Feeds map[*graph.Node]*tensor.Tensor

// planStep is one scheduled node of a compiled plan.
type planStep struct {
	node *graph.Node
	kind graph.NodeKind
	ins  []int            // value positions of the node's inputs
	in   []*tensor.Tensor // reusable input gather buffer
	out  *tensor.Tensor   // arena-backed destination (fast path only)
	into graph.IntoOp     // non-nil iff out is set
	// readBufs are the arena buffers this step's inputs may reference
	// (through views included) — the read set the tensor.BufferGuard
	// assertion hook brackets in test builds.
	readBufs [][]float32
}

// Plan is a compiled execution schedule for one fetch set: the
// topological order of the transitive dependencies plus the static
// arena-buffer assignment produced by liveness analysis. Plans are
// cached per session and reused by every Run with the same fetches.
//
// Beyond the sequential schedule, compilation records the inter-op
// dependency structure (per-step successor lists and in-degrees) the
// parallel scheduler drains: data edges, variable-access hazard edges,
// the serial lane chaining Impure operations in schedule order, and
// arena anti-dependency edges gating buffer reuse on the completion of
// every reader of the buffer's previous value (see sched.go).
type Plan struct {
	steps     []planStep
	values    []*tensor.Tensor // per-step results, reused across Runs
	fetchPos  []int            // value position of each fetch
	fetchCopy []bool           // fetch may alias arena memory → clone
	slots     int              // arena slots assigned
	buffers   int              // distinct arena buffers backing them

	// Inter-op scheduling structure over op steps (non-op steps carry
	// no work and are resolved before the parallel phase).
	succs [][]int32 // scheduling successors of each step
	preds [][]int32 // scheduling predecessors (mirror of succs)
	// predsCP excludes arena anti-dependency edges: the semantic
	// constraints (data, variable hazard, serial Impure lane) that any
	// buffer assignment must respect. Critical paths are computed over
	// these, so the reported achievable speedup is width-independent;
	// the makespan simulation uses the full preds, which do include
	// the anti-dependency resource constraints of this plan.
	predsCP [][]int32
	indeg   []int32 // scheduling in-degree of each step
	nOps    int     // number of op steps
	edges   int     // scheduling edges (incl. hazard/serial/anti)

	// prio orders the parallel scheduler's ready queue by longest
	// processing time to a sink: a step's priority is the weight of the
	// heaviest chain of scheduling successors hanging off it, so the
	// drain starts critical-path work first and trailing stragglers
	// shrink. Compiled with unit weights (chain length in ops);
	// refreshed with measured durations after each parallel run.
	// Priority affects only the pop order among simultaneously ready
	// steps — the determinism contract makes results independent of it.
	prio []int64

	// Per-run scratch, reused across Runs (sessions are confined to
	// one goroutine between Runs).
	indegRun []int32
	finish   []time.Duration // simulated finish time per step
	cp       []time.Duration // critical-path finish per step
	durs     []time.Duration // measured device time per step (parallel)
	walls    []time.Duration // measured wall time per step (parallel)
	wallT0   []time.Time     // measured wall start per step (parallel)
}

// Slots reports how many operation outputs were assigned arena slots.
func (p *Plan) Slots() int { return p.slots }

// Buffers reports how many distinct arena buffers back those slots;
// slots minus buffers is the number of in-plan buffer reuses.
func (p *Plan) Buffers() int { return p.buffers }

// Ops reports how many schedulable operation steps the plan holds.
func (p *Plan) Ops() int { return p.nOps }

// Edges reports how many scheduling edges constrain the plan: data
// dependencies plus the hazard, serial-lane and arena anti-dependency
// edges that make parallel execution bit-identical to sequential.
func (p *Plan) Edges() int { return p.edges }

// Session executes fetches against a graph on a device, accumulating
// an operation trace on a simulated timeline.
//
// A Session is confined to a single goroutine: the plan cache, buffer
// arena, execution context (pool, RNG, training flag) and trace are
// all unsynchronized, and compiled plans write into arena buffers the
// session owns. Concurrent callers must use one session per goroutine
// — serve.Engine's session pool is the sanctioned concurrent entry
// point. Multiple sessions may share one graph for inference (forward
// execution only reads variable values); training mutates variable and
// optimizer state and must be exclusive with any other use of the
// graph.
//
// Sessions with parallelism enabled hold a lease on the shared worker
// pool; call Close when done with such a session (serve.Engine does on
// shutdown). Close is cheap and safe on any session.
type Session struct {
	g     *graph.Graph
	dev   Device
	ctx   *graph.ExecContext
	clock time.Duration
	step  int

	traceOn bool
	trace   []Event

	arena     *tensor.Arena
	planCache map[string]*Plan

	// interOp is the inter-op scheduler width: 1 executes the plan's
	// sequential schedule on the session goroutine (the default);
	// larger values drain the plan's ready queue with the session
	// goroutine plus helpers leased from the shared worker pool (see
	// sched.go). Results are bit-identical either way. The session
	// remains single-goroutine from the caller's perspective: Run
	// still may not be invoked concurrently.
	interOp int
	// intraOp is the real intra-op width: with n > 1 the session's
	// kernel pools execute chunks on shared-pool helpers
	// (tensor.NewParallelPool) instead of modeling the speedup.
	intraOp   int
	workers   int                  // modeled width of serial kernel pools (WithWorkers)
	execPool  *sched.Pool          // shared worker pool (default sched.Default)
	lease     *sched.Lease         // the session's adaptive claim on it
	leaseName string               // tenant name the claim registers under
	closed    bool                 // set by Close; Run then fails
	wctx      []*graph.ExecContext // per-helper contexts, built lazily
}

// Option configures a Session.
type Option func(*Session)

// WithDevice selects the execution device (default CPUDevice).
func WithDevice(d Device) Option { return func(s *Session) { s.dev = d } }

// WithWorkers sets the modeled intra-op worker count (default 1).
func WithWorkers(n int) Option { return func(s *Session) { s.workers = n } }

// WithSeed seeds the session RNG (default 1).
func WithSeed(seed int64) Option {
	return func(s *Session) { s.ctx.RNG = rand.New(rand.NewSource(seed)) }
}

// Reseed replaces the session's RNG with a fresh stream seeded by
// seed, exactly as if the session had been created with WithSeed(seed)
// and never drawn from it. Data-parallel training (internal/dist) uses
// it to key every micro-batch's stochastic operations (sampling,
// dropout masks) to the chunk being executed rather than to the
// session's history, so a chunk's RNG stream is identical no matter
// how many chunks the session ran before it — the property that keeps
// replicated training bit-identical across replica counts. Like Run,
// it must only be called between Runs from the session's goroutine.
func (s *Session) Reseed(seed int64) {
	s.ctx.RNG = rand.New(rand.NewSource(seed))
}

// WithInterOpWorkers sets the inter-op scheduler width (default 1 =
// sequential execution). With n > 1, Run executes independent plan
// steps on up to n goroutines — the session goroutine plus helpers
// leased from the shared worker pool — while preserving the
// determinism contract: fetches, losses and variable updates are
// bit-identical to serial execution for any n, and WithSeed replay is
// unchanged — stateful and RNG-consuming operations stay on a serial
// lane in schedule order.
func WithInterOpWorkers(n int) Option {
	return func(s *Session) {
		if n < 1 {
			n = 1
		}
		s.interOp = n
	}
}

// WithIntraOpWorkers sets the real intra-op width (default 1): with
// n > 1 every kernel pool of the session executes its chunked loops on
// up to n goroutines drawn from the shared worker pool, and traced op
// durations are measured wall time rather than modeled makespans.
// Chunk boundaries and float32 reduction order are fixed by trip count
// and grain — never by width — so results stay bit-identical to a
// serial session (and to any other intra-op × inter-op width). Takes
// precedence over WithWorkers, which keeps the paper's serial modeled
// pools.
func WithIntraOpWorkers(n int) Option {
	return func(s *Session) {
		if n < 1 {
			n = 1
		}
		s.intraOp = n
	}
}

// WithWorkerPool selects the shared execution pool helpers are leased
// from (default sched.Default()). Tests use scoped pools; production
// sessions share the process-wide one so total execution goroutines
// stay bounded by its size regardless of session count.
func WithWorkerPool(p *sched.Pool) Option {
	return func(s *Session) { s.execPool = p }
}

// WithTrace enables event collection.
func WithTrace() Option { return func(s *Session) { s.traceOn = true } }

// WithLeaseName sets the tenant name the session's shared-pool lease
// registers under (default "session"). Multi-session subsystems pass
// their own names ("engine/<model>", "dist/<model>", "fuse/<model>")
// so the pool's per-tenant occupancy report attributes helper demand
// to the right tenant class.
func WithLeaseName(name string) Option {
	return func(s *Session) { s.leaseName = name }
}

// NewSession creates a session over g.
func NewSession(g *graph.Graph, opts ...Option) *Session {
	s := &Session{
		g:         g,
		dev:       CPUDevice{},
		ctx:       &graph.ExecContext{RNG: rand.New(rand.NewSource(1))},
		arena:     tensor.NewArena(),
		planCache: map[string]*Plan{},
		interOp:   1,
	}
	for _, o := range opts {
		o(s)
	}
	// Lease the session's bounded claim on the shared worker pool: up
	// to interOp-1 inter-op drain helpers plus intraOp-1 kernel helpers
	// per concurrently executing op. The lease persists across Runs
	// (workers return to the pool between regions) and is released by
	// Close.
	if s.intraOp > 1 || s.interOp > 1 {
		if s.execPool == nil {
			s.execPool = sched.Default()
		}
		intra := s.intraOp
		if intra < 1 {
			intra = 1
		}
		name := s.leaseName
		if name == "" {
			name = "session"
		}
		s.lease = s.execPool.LeaseNamed(name, s.interOp*intra-1)
	}
	s.ctx.Pool = s.newKernelPool()
	return s
}

// Close releases the session's lease on the shared worker pool and
// marks the session closed: subsequent Runs fail with ErrClosed.
// Close is idempotent and must only be called between Runs (sessions
// are single-goroutine). Sessions that never enabled parallelism hold
// no pool resources, and Close on them only bars further Runs.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.lease != nil {
		s.lease.Close()
	}
	s.wctx = nil
}

// IntraOpWorkers returns the configured real intra-op width.
func (s *Session) IntraOpWorkers() int {
	if s.intraOp < 1 {
		return 1
	}
	return s.intraOp
}

// Context exposes the session's execution context.
func (s *Session) Context() *graph.ExecContext { return s.ctx }

// Device returns the session's device.
func (s *Session) Device() Device { return s.dev }

// Arena exposes the session's buffer arena (stats, tests).
func (s *Session) Arena() *tensor.Arena { return s.arena }

// InterOpWorkers returns the configured inter-op scheduler width.
func (s *Session) InterOpWorkers() int { return s.interOp }

// SetTraining sets the mode flag seen by mode-dependent ops.
func (s *Session) SetTraining(v bool) { s.ctx.Training = v }

// Step returns the number of completed Run calls.
func (s *Session) Step() int { return s.step }

// Trace returns the accumulated events (nil unless WithTrace).
func (s *Session) Trace() []Event { return s.trace }

// ResetTrace clears accumulated events and rewinds the sim clock.
func (s *Session) ResetTrace() {
	s.trace = nil
	s.clock = 0
}

// SimTime returns the simulated timeline position.
func (s *Session) SimTime() time.Duration { return s.clock }

func planKey(fetches []*graph.Node) string {
	b := make([]byte, 0, len(fetches)*4)
	for _, f := range fetches {
		id := f.ID()
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// Plan returns the compiled plan for a fetch set, compiling and
// caching it if needed.
func (s *Session) Plan(fetches []*graph.Node) *Plan {
	key := planKey(fetches)
	plan, ok := s.planCache[key]
	if !ok {
		plan = s.compile(fetches)
		s.planCache[key] = plan
	}
	return plan
}

// compile builds the execution plan: topological order, alias-aware
// liveness analysis, and greedy arena-slot assignment.
func (s *Session) compile(fetches []*graph.Node) *Plan {
	order := graph.Topo(fetches)
	n := len(order)
	pos := make(map[*graph.Node]int, n)
	for i, nd := range order {
		pos[nd] = i
	}

	// lastUse[i]: the latest schedule position that reads node i's
	// value (its own position if nothing does).
	lastUse := make([]int, n)
	for i := range order {
		lastUse[i] = i
	}
	for i, nd := range order {
		for _, in := range nd.Inputs() {
			lastUse[pos[in]] = i
		}
	}

	_, devOK := s.dev.(IntoRunner)

	// aliases[i]: the arena slots node i's value may reference. An op
	// with a ForwardInto fast path owns exactly its own slot (its
	// output is always freshly written arena memory). Any other op is
	// conservatively assumed to return a view of its inputs (Reshape,
	// Identity, inference-mode Dropout do), so it propagates the union
	// of their alias sets.
	steps := make([]planStep, n)
	aliases := make([][]int, n)
	for i, nd := range order {
		st := planStep{node: nd, kind: nd.Kind()}
		if nd.Kind() == graph.KindOp {
			ins := nd.Inputs()
			st.ins = make([]int, len(ins))
			st.in = make([]*tensor.Tensor, len(ins))
			for j, in := range ins {
				st.ins[j] = pos[in]
			}
			if io, ok := nd.Op().(graph.IntoOp); ok && devOK && tensor.SizeOf(nd.Shape()) > 0 {
				st.into = io
				aliases[i] = []int{i}
			} else {
				var set []int
				for _, j := range st.ins {
					for _, sl := range aliases[j] {
						if !slices.Contains(set, sl) {
							set = append(set, sl)
						}
					}
				}
				aliases[i] = set
			}
		}
		steps[i] = st
	}

	// slotEnd[sl]: the schedule position after which slot sl's buffer
	// is dead; 0 where step sl owns no slot (a slot is read after
	// position 0). A slot reachable from a fetch is pinned for the whole
	// run (position n) and its fetch is cloned on the way out. Indexed
	// by step, so buffers are released — and enter the LIFO free list —
	// in schedule order, the same in every compile.
	slotEnd := make([]int, n)
	for i := range order {
		for _, sl := range aliases[i] {
			if lastUse[i] > slotEnd[sl] {
				slotEnd[sl] = lastUse[i]
			}
		}
	}
	fetchPos := make([]int, len(fetches))
	fetchCopy := make([]bool, len(fetches))
	for j, f := range fetches {
		i := pos[f]
		fetchPos[j] = i
		fetchCopy[j] = len(aliases[i]) > 0
		for _, sl := range aliases[i] {
			slotEnd[sl] = n
		}
	}

	// ---- inter-op scheduling structure ----
	//
	// Edges between op steps constrain the parallel scheduler so that
	// any worker count reproduces sequential execution bit-exactly.
	// All edges point forward in schedule order, so the structure is
	// acyclic by construction. Non-op steps (feeds, constants,
	// variables) carry no work; they resolve before the parallel phase
	// and need no edges.
	plan := &Plan{steps: steps, values: make([]*tensor.Tensor, n), fetchPos: fetchPos, fetchCopy: fetchCopy}
	succs := make([][]int32, n)
	preds := make([][]int32, n)
	predsCP := make([][]int32, n)
	indeg := make([]int32, n)
	seenEdge := map[int64]bool{}
	addEdgeKind := func(from, to int, anti bool) {
		if from < 0 || from == to {
			return
		}
		if steps[from].kind != graph.KindOp || steps[to].kind != graph.KindOp {
			return
		}
		k := int64(from)<<32 | int64(to)
		if seenEdge[k] {
			return
		}
		seenEdge[k] = true
		succs[from] = append(succs[from], int32(to))
		preds[to] = append(preds[to], int32(from))
		if !anti {
			predsCP[to] = append(predsCP[to], int32(from))
		}
		indeg[to]++
		plan.edges++
	}
	addEdge := func(from, to int) { addEdgeKind(from, to, false) }

	// varAliases[i]: the variable nodes whose storage node i's value
	// may reference. A Variable node references itself; an op without
	// the IntoOp fast path may return a view of its inputs (Reshape,
	// Identity, inference-mode Dropout), so it propagates the union of
	// their sets — mirroring the arena alias analysis — while into-ops
	// write fresh arena memory and reference no variable.
	varAliases := make([][]*graph.Node, n)
	for i := range order {
		switch steps[i].kind {
		case graph.KindVariable:
			varAliases[i] = []*graph.Node{order[i]}
		case graph.KindOp:
			if steps[i].into == nil {
				var set []*graph.Node
				for _, p := range steps[i].ins {
					for _, v := range varAliases[p] {
						if !slices.Contains(set, v) {
							set = append(set, v)
						}
					}
				}
				varAliases[i] = set
			}
		}
	}

	// Data edges, variable-access hazard edges, and the serial Impure
	// lane, in one schedule walk. Hazard edges serialize every access
	// to a mutated node (graph.Mutator — optimizer apply-ops) in
	// schedule order: reads since the last write precede the next
	// write, and writes precede subsequent reads, so kernels that read
	// a variable — directly or through a view — never race its
	// in-place update. The Impure chain pins stateful/RNG ops (random
	// sampling, dropout's mask handoff, optimizer slot state) to a
	// serial lane keyed by graph order, which is what keeps WithSeed
	// replay identical across inter-op worker counts.
	type varAccess struct {
		lastWrite  int
		readsSince []int
	}
	access := map[*graph.Node]*varAccess{}
	touch := func(nd *graph.Node) *varAccess {
		a := access[nd]
		if a == nil {
			a = &varAccess{lastWrite: -1}
			access[nd] = a
		}
		return a
	}
	prevImpure := -1
	for i, nd := range order {
		if steps[i].kind != graph.KindOp {
			continue
		}
		plan.nOps++
		for _, p := range steps[i].ins {
			addEdge(p, i)
		}
		var reads []*graph.Node
		for _, p := range steps[i].ins {
			for _, v := range varAliases[p] {
				if !slices.Contains(reads, v) {
					reads = append(reads, v)
				}
			}
		}
		for _, v := range reads {
			a := touch(v)
			addEdge(a.lastWrite, i)
			a.readsSince = append(a.readsSince, i)
		}
		if mut, ok := nd.Op().(graph.Mutator); ok {
			for _, v := range mut.Mutates() {
				a := touch(v)
				for _, r := range a.readsSince {
					addEdge(r, i)
				}
				addEdge(a.lastWrite, i)
				a.lastWrite = i
				a.readsSince = a.readsSince[:0]
			}
		}
		if _, ok := nd.Op().(graph.Impure); ok {
			addEdge(prevImpure, i)
			prevImpure = i
		}
	}

	// readersOfSlot[sl]: every op step whose inputs may reference slot
	// sl's value (via views included) — the completion set that gates
	// recycling sl's buffer under parallel execution.
	readersOfSlot := map[int][]int{}
	for i := range order {
		if steps[i].kind != graph.KindOp {
			continue
		}
		for _, p := range steps[i].ins {
			for _, sl := range aliases[p] {
				readersOfSlot[sl] = append(readersOfSlot[sl], i)
			}
		}
	}

	// Greedy buffer assignment: walk the schedule, free each slot's
	// buffer as soon as the scan passes its last use, so later slots
	// with disjoint lifetimes reuse it. A node's destination is drawn
	// while all of its inputs' buffers are still checked out, so out
	// never aliases an input.
	//
	// Completion-count gating: when step i reuses the buffer slot sl
	// released, sequential execution is safe because i runs after sl's
	// last reader by position; under parallel execution that ordering
	// must be explicit. Two strategies, by session width:
	//
	//   - interOp == 1 (and plans too large for ancestor bitsets):
	//     maximal reuse, with anti-dependency edges from sl and every
	//     reader of sl to the acquiring step. Transitively (each
	//     acquirer waits for the previous holder's readers and is
	//     itself ordered before the next acquirer) a buffer's whole
	//     access history stays sequential.
	//   - interOp > 1: parallelism-aware reuse — a freed buffer is
	//     taken only when the releasing slot and all of its readers
	//     are already ancestors of the acquiring step through the
	//     scheduling edges built above, so reuse never serializes
	//     independent branches; otherwise the step draws a fresh
	//     buffer (more memory, no lost concurrency).
	const ancestorCap = 8192
	useAnc := s.interOp > 1 && n <= ancestorCap
	var anc []uint64
	words := (n + 63) / 64
	if useAnc {
		anc = make([]uint64, n*words)
		for i := range order {
			if steps[i].kind != graph.KindOp {
				continue
			}
			row := anc[i*words : (i+1)*words]
			for _, p32 := range preds[i] {
				p := int(p32)
				row[p/64] |= 1 << uint(p%64)
				prow := anc[p*words : (p+1)*words]
				for w := range row {
					row[w] |= prow[w]
				}
			}
		}
	}
	isAnc := func(a, of int) bool {
		return anc[of*words+a/64]&(1<<uint(a%64)) != 0
	}
	// orderedBefore reports whether every access to slot sl is already
	// ordered before step i by existing scheduling edges.
	orderedBefore := func(sl, i int) bool {
		if !isAnc(sl, i) {
			return false
		}
		for _, r := range readersOfSlot[sl] {
			if r != i && !isAnc(r, i) {
				return false
			}
		}
		return true
	}

	releaseAt := make([][]int, n)
	for sl, e := range slotEnd {
		if e > 0 && e < n {
			releaseAt[e] = append(releaseAt[e], sl)
		}
	}
	type freeBuf struct {
		data []float32 // full size-class capacity
		slot int       // slot that released it
	}
	freelist := map[int][]freeBuf{} // size class → freed buffers (LIFO)
	bufs := make([]*tensor.Tensor, n)
	seen := make(map[*float32]bool)
	for i := range order {
		if steps[i].into != nil {
			size := tensor.SizeOf(order[i].Shape())
			bkt := tensor.BucketFor(size)
			var data []float32
			free := freelist[bkt]
			if useAnc {
				for idx := len(free) - 1; idx >= 0; idx-- {
					if orderedBefore(free[idx].slot, i) {
						data = free[idx].data
						freelist[bkt] = append(free[:idx], free[idx+1:]...)
						break
					}
				}
			} else if len(free) > 0 {
				fb := free[len(free)-1]
				freelist[bkt] = free[:len(free)-1]
				data = fb.data
				addEdgeKind(fb.slot, i, true)
				for _, r := range readersOfSlot[fb.slot] {
					addEdgeKind(r, i, true)
				}
			}
			if data == nil {
				data = s.arena.Get(size)
			} else {
				// Hand the reused buffer to the arena and take it
				// straight back: compile-time reuse is then counted like
				// any other recycled Get, so a plan's
				// ArenaStats.ReuseRatio is (slots−buffers)/slots. The
				// assignment above must stand, so the round trip has to
				// return the very buffer it was given.
				s.arena.Put(data)
				if back := s.arena.Get(size); &back[:1][0] != &data[0] {
					panic("runtime: arena round trip returned another buffer")
				}
			}
			t := tensor.FromSlice(data[:size], order[i].Shape()...)
			bufs[i] = t
			steps[i].out = t
			plan.slots++
			if d := t.Data(); !seen[&d[0]] {
				seen[&d[0]] = true
				plan.buffers++
			}
		}
		for _, sl := range releaseAt[i] {
			d := bufs[sl].Data()
			freelist[cap(d)] = append(freelist[cap(d)], freeBuf{data: d[:cap(d)], slot: sl})
		}
	}
	// Freed buffers not re-acquired go back to the session arena for
	// other plans (runs of different plans never overlap).
	for _, free := range freelist {
		for _, fb := range free {
			s.arena.Put(fb.data)
		}
	}

	// Guard read sets: the distinct arena buffers each op step's
	// inputs may reference (consulted only when a tensor.BufferGuard
	// is installed, i.e. in test builds).
	for i := range order {
		if steps[i].kind != graph.KindOp {
			continue
		}
		var bufsSeen []*float32
		for _, p := range steps[i].ins {
			for _, sl := range aliases[p] {
				d := bufs[sl].Data()
				if !slices.Contains(bufsSeen, &d[0]) {
					bufsSeen = append(bufsSeen, &d[0])
					steps[i].readBufs = append(steps[i].readBufs, d)
				}
			}
		}
	}

	plan.succs = succs
	plan.preds = preds
	plan.predsCP = predsCP
	plan.indeg = indeg
	// Initial LPT priority: unit-weight height to the schedule's sinks.
	// Edges point forward in schedule order, so one reverse walk
	// suffices; measured durations refine it after the first run.
	plan.prio = make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		if steps[i].kind != graph.KindOp {
			continue
		}
		var h int64
		for _, sc := range succs[i] {
			if p := plan.prio[sc]; p > h {
				h = p
			}
		}
		plan.prio[i] = h + 1
	}
	plan.indegRun = make([]int32, n)
	plan.finish = make([]time.Duration, n)
	plan.cp = make([]time.Duration, n)
	plan.durs = make([]time.Duration, n)
	plan.walls = make([]time.Duration, n)
	plan.wallT0 = make([]time.Time, n)
	return plan
}

// Run evaluates fetches given feeds, returning one tensor per fetch.
// The returned tensors never alias plan buffers: they remain valid
// across subsequent Runs.
//
// With WithInterOpWorkers(n > 1) the plan's ready queue is drained by
// n worker goroutines (see sched.go); the results are bit-identical
// to sequential execution for any n.
func (s *Session) Run(fetches []*graph.Node, feeds Feeds) ([]*tensor.Tensor, error) {
	if s.closed {
		return nil, ErrClosed
	}
	plan := s.Plan(fetches)
	s.ctx.Step = s.step
	var err error
	if s.interOp > 1 && plan.nOps > 1 {
		err = s.runParallel(plan, feeds)
	} else {
		err = s.runSequential(plan, feeds)
	}
	if err != nil {
		return nil, err
	}
	s.step++
	values := plan.values
	out := make([]*tensor.Tensor, len(fetches))
	for j := range fetches {
		v := values[plan.fetchPos[j]]
		if plan.fetchCopy[j] {
			v = v.Clone()
		}
		out[j] = v
	}
	return out, nil
}

// RunTraced evaluates fetches like Run but additionally returns the
// per-op Events of exactly this run, regardless of whether persistent
// tracing is enabled. Serving uses it to attach op spans to sampled
// requests without leaving tracing on for the unsampled ones: when the
// session was not already tracing, the events are handed to the caller
// and the session's persistent trace buffer is left untouched.
func (s *Session) RunTraced(fetches []*graph.Node, feeds Feeds) ([]*tensor.Tensor, []Event, error) {
	prevOn, mark := s.traceOn, len(s.trace)
	s.traceOn = true
	out, err := s.Run(fetches, feeds)
	events := append([]Event(nil), s.trace[mark:]...)
	if !prevOn {
		s.trace = s.trace[:mark]
	}
	s.traceOn = prevOn
	return out, events, err
}

// resolveNonOps materializes the workless steps — constants,
// variables and validated feeds — into the plan's value table. Both
// execution drivers share it, so feed validation (and its errors)
// behaves identically regardless of inter-op width.
func resolveNonOps(plan *Plan, feeds Feeds) error {
	values := plan.values
	for i := range plan.steps {
		st := &plan.steps[i]
		switch st.kind {
		case graph.KindConst, graph.KindVariable:
			values[i] = st.node.Value()
		case graph.KindPlaceholder:
			v, ok := feeds[st.node]
			if !ok {
				return fmt.Errorf("runtime: missing feed for placeholder %q", st.node.Name())
			}
			if !tensor.SameShape(v.Shape(), st.node.Shape()) {
				return fmt.Errorf("runtime: feed for %q has shape %v, want %v", st.node.Name(), v.Shape(), st.node.Shape())
			}
			values[i] = v
		}
	}
	return nil
}

// runSequential executes the plan's schedule in order on the session
// goroutine — the default, and the semantics parallel execution must
// reproduce bit-exactly.
func (s *Session) runSequential(plan *Plan, feeds Feeds) error {
	if err := resolveNonOps(plan, feeds); err != nil {
		return err
	}
	values := plan.values
	guard := s.arena.Guard()
	var cp []time.Duration
	if s.traceOn {
		cp = plan.cp
		for i := range cp {
			cp[i] = 0
		}
	}
	for i := range plan.steps {
		st := &plan.steps[i]
		if st.kind != graph.KindOp {
			continue
		}
		nd := st.node
		in := st.in
		for j, p := range st.ins {
			in[j] = values[p]
		}
		var t0 time.Time
		if s.traceOn {
			t0 = time.Now()
		}
		out, dur, err := s.execStep(s.ctx, st, in, guard)
		if err != nil {
			return fmt.Errorf("runtime: %v: %w", nd, err)
		}
		if s.traceOn {
			// Critical path over the semantic constraints (data,
			// hazard, serial lane): the width-independent bound any
			// legal schedule and buffer assignment must respect.
			c := time.Duration(0)
			for _, p := range plan.predsCP[i] {
				if cp[p] > c {
					c = cp[p]
				}
			}
			cp[i] = c + dur
			s.trace = append(s.trace, Event{
				Node: nd, Op: nd.OpName(), Class: nd.Op().Class(),
				Start: s.clock, Dur: dur, Step: s.step,
				Worker: 0, Wall: time.Since(t0), WallStart: t0, CP: cp[i],
			})
		}
		s.clock += dur
		values[i] = out
	}
	return nil
}

// execStep runs one op step on a device through the given execution
// context, bracketing arena-buffer access with the test-build guard.
func (s *Session) execStep(ctx *graph.ExecContext, st *planStep, in []*tensor.Tensor, guard *tensor.BufferGuard) (*tensor.Tensor, time.Duration, error) {
	if guard != nil {
		for _, b := range st.readBufs {
			guard.BeginRead(b)
		}
		if st.out != nil {
			guard.BeginWrite(st.out.Data())
		}
		defer func() {
			if st.out != nil {
				guard.EndWrite(st.out.Data())
			}
			for _, b := range st.readBufs {
				guard.EndRead(b)
			}
		}()
	}
	if st.into != nil {
		dur, err := s.dev.(IntoRunner).RunInto(ctx, st.node, in, st.out)
		return st.out, dur, err
	}
	return s.dev.Run(ctx, st.node, in)
}

// MustRun is Run for tests and examples; it panics on error.
func (s *Session) MustRun(fetches []*graph.Node, feeds Feeds) []*tensor.Tensor {
	out, err := s.Run(fetches, feeds)
	if err != nil {
		panic(err)
	}
	return out
}
