// Package runtime executes dataflow graphs: the analogue of the
// TensorFlow runtime the paper instruments. It provides sessions,
// per-operation tracing on a simulated timeline, and two devices that
// price the operations a session runs — a CPU whose op timings come
// from measured kernels under the virtual thread pool, and a modeled
// GPU using a roofline cost model (the substitution for the paper's
// GTX 960; see DESIGN.md §4.2).
//
// # Compiled execution plans
//
// The first Run of a fetch set compiles it into a Plan: the transitive
// dependencies in topological order, plus a static memory layout.
// Compilation is five passes over one step-indexed IR — schedule, fuse,
// liveness, constrain, assign; compile.go states the rules they share —
// that give every kernel operation (graph.Op) a destination slot at an
// offset in the session's one slab (tensor.Arena), sized to the largest
// plan it compiled. Intermediates with disjoint lifetimes share floats,
// and because plans are cached on the session, steady-state steps
// execute with near-zero heap allocation: every operation writes into
// its preassigned slot, except the views (Reshape, Identity), which
// compute nothing.
//
// The fuse pass runs each connected set of element-wise ops
// (graph.Pointwise, and last-axis Slices as graph.Window reads) whose
// values only the set reads in this plan as one step, together with at
// most one other kernel the set reads — its head, such as the GEMM
// under a bias add and an activation: one slot, one dispatch, one trace
// event named by its members joined with "+" in its head's class, and
// the unfused ops' bits (tensor.Program). WithUnfusedPlans turns it off
// for the op-level profiles the paper's figures are made of.
//
// Tensors returned from Run never alias the slab: any fetch whose
// value may reach a slot is deep-copied on the way out
// (copy-on-fetch), so callers can hold results across subsequent Runs.
//
// # Parallelism and the shared worker pool
//
// Plans also record the dependency structure of a parallel scheduler:
// with WithInterOpWorkers(n) a Run drains the plan's LPT-ordered
// ready queue with the session goroutine plus up to n-1 helpers
// leased from the process-wide bounded worker pool (internal/sched)
// while staying bit-identical to sequential execution — see sched.go
// for the scheduler and the determinism contract (serial Impure lane,
// variable hazard edges, gated slab sharing). WithIntraOpWorkers(n)
// additionally makes every kernel pool execute its chunks on shared-
// pool goroutines (tensor.Pool's parallel behaviour) instead of
// running them in order. Sessions lease their helper claim at creation
// and release it in Close; no goroutines are spawned per Run.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// ErrClosed is returned by Run after Session.Close.
var ErrClosed = errors.New("runtime: session closed")

// Event records one operation execution on the session's simulated
// timeline. Dur is the price the session's Device put on the
// operation; Wall is what the host measured.
type Event struct {
	Node  *graph.Node   // for a fused step, the node of the value it computes
	Op    string        // operation type name; a fused step's members' names joined with "+"
	Class graph.OpClass // Figure-3 class; a fused step's head's, or elementwise
	Start time.Duration // simulated start since session creation
	Dur   time.Duration // simulated duration
	Step  int           // session run counter when executed
	// Worker is the inter-op lane that executed the operation (always
	// 0 under serial execution; see WithInterOpWorkers).
	Worker int
	// Wall is the measured host wall time of the operation's kernel,
	// next to the device-priced Dur.
	Wall time.Duration
	// WallStart is the absolute host time the operation started —
	// with Wall and Worker it reconstructs the measured execution
	// timeline (one lane per inter-op worker) next to the simulated
	// one, and lets serving traces nest op spans under request spans.
	WallStart time.Time
	// Regions holds each split region's chunk durations in chunk order,
	// for profiling.AtWidth; nil unless the session has WithChunkRecord.
	Regions [][]time.Duration
	// CP is the operation's critical-path finish within its run: Dur
	// plus the longest Dur-weighted chain of semantic scheduling
	// constraints (data, variable hazard and serial-lane edges)
	// feeding it. The run's maximum CP is its critical path — the
	// lower bound on makespan under unlimited inter-op workers and
	// an unconstrained slab for any schedule the determinism contract
	// permits, which profiling turns into the achievable inter-op
	// speedup of the workload (independent of the traced width).
	CP time.Duration
}

// Device is a cost model: the session runs every operation itself, on
// the host's kernels, and asks the device what the operation costs on
// the timeline it simulates.
type Device interface {
	Name() string
	// OpTime prices one execution of a plan step that took wall on the
	// host. nodes are what the step computes: its one node, or a fused
	// step's members.
	OpTime(nodes []*graph.Node, wall time.Duration) time.Duration
}

// CPUDevice prices an operation at the wall time the host measured.
type CPUDevice struct{}

// Name implements Device.
func (CPUDevice) Name() string { return "cpu" }

// OpTime implements Device.
func (CPUDevice) OpTime(_ []*graph.Node, wall time.Duration) time.Duration { return wall }

// GPUDevice prices an operation at launch + max(flops/PeakFlops,
// bytes/PeakBytes) whatever the host measured: a roofline model
// calibrated to a GTX-960-class part. Operations expose flop/byte
// counts through graph.Coster; other ops get a byte-dominated default.
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

// cost is the flop and byte count of executing n.
func cost(n *graph.Node) (flops, bytes int64) {
	inShapes := make([][]int, len(n.Inputs()))
	for i, x := range n.Inputs() {
		inShapes[i] = x.Shape()
	}
	if c, ok := n.Op().(graph.Coster); ok {
		return c.Cost(inShapes, n.Shape())
	}
	var b int64
	for _, s := range inShapes {
		b += int64(tensor.SizeOf(s))
	}
	b += int64(tensor.SizeOf(n.Shape()))
	return int64(tensor.SizeOf(n.Shape())), b * 4
}

// modelTime computes the roofline duration for executing nodes as one
// kernel: one launch, and the sum of their costs.
func (d *GPUDevice) modelTime(nodes []*graph.Node) time.Duration {
	var flops, bytes int64
	for _, n := range nodes {
		f, b := cost(n)
		flops, bytes = flops+f, bytes+b
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

// OpTime implements Device.
func (d *GPUDevice) OpTime(nodes []*graph.Node, _ time.Duration) time.Duration {
	return d.modelTime(nodes)
}

// Feeds maps placeholder nodes to their input tensors for one Run.
type Feeds map[*graph.Node]*tensor.Tensor

// kernel is the method of a kernel op (see graph.Op), as execStep calls
// it.
type kernel interface {
	ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error
}

// planStep is one scheduled node of a compiled plan. An op step is a
// kernel, which writes its slot out, or a view, which has none. A
// fused step is a kernel that computes node from a connected set of
// element-wise nodes (see compile.go's fuse pass).
type planStep struct {
	node   *graph.Node
	kind   graph.NodeKind
	nodes  []*graph.Node    // what the step computes: node, or a fused step's members in schedule order
	fused  *fusedStep       // a fused step's kernel
	ins    []int            // value positions of the node's inputs (a fused step's operands)
	in     []*tensor.Tensor // reusable input gather buffer
	kernel kernel           // a kernel step's op,
	off    int              // its slot's offset in the session slab, and
	out    *tensor.Tensor   // the slot it writes, bound to that slab
	view   graph.ViewOp     // a view step's op
	// readSlots are the slot steps this step's inputs may reference
	// (through views included) — the read set the tensor.BufferGuard
	// assertion hook brackets in test builds.
	readSlots []*planStep
}

// Plan is a compiled execution schedule for one fetch set: the
// topological order of the transitive dependencies, the slot offsets
// in the session slab, and the scheduling edges the parallel
// scheduler drains (see compile.go for how each is decided). Plans are
// cached per session and reused by every Run with the same fetches.
type Plan struct {
	steps     []planStep
	values    []*tensor.Tensor // per-step results, reused across Runs
	fetchPos  []int            // value position of each fetch
	fetchCopy []bool           // fetch may alias the slab → clone
	slots     int              // slots placed in the slab
	buffers   int              // of them, those on floats no earlier slot used

	nOps    int // number of op steps
	edgeSet     // inter-op scheduling structure over them

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
	timing   []opTiming      // what execStep measured per step (parallel)
}

// opTiming is what execStep measured of one operation: when its kernel
// started on the host, how long it took, its price and its chunks.
type opTiming struct {
	start   time.Time
	wall    time.Duration
	dur     time.Duration
	regions [][]time.Duration
}

// Slots reports how many operation outputs were given slots in the slab.
func (p *Plan) Slots() int { return p.slots }

// Buffers reports how many of those slots sit on floats of the slab that
// no slot earlier in the schedule uses; slots minus buffers is the
// number of slots that reuse an earlier slot's floats.
func (p *Plan) Buffers() int { return p.buffers }

// Ops reports how many schedulable operation steps the plan holds.
func (p *Plan) Ops() int { return p.nOps }

// Edges reports how many scheduling edges constrain the plan: data
// dependencies plus the hazard, serial-lane and slab anti-dependency
// edges that make parallel execution bit-identical to sequential.
func (p *Plan) Edges() int { return p.edges }

// Session executes fetches against a graph on a device, accumulating
// an operation trace on a simulated timeline.
//
// A Session is confined to a single goroutine: the plan cache, slab,
// execution context (pool, RNG, training flag) and trace are all
// unsynchronized, and compiled plans write into the slab the session
// owns. Concurrent callers must use one session per goroutine
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
	planCache map[planKey]*Plan

	// interOp is the inter-op scheduler width: 1 executes the plan's
	// sequential schedule on the session goroutine (the default);
	// larger values drain the plan's ready queue with the session
	// goroutine plus helpers leased from the shared worker pool (see
	// sched.go). Results are bit-identical either way. The session
	// remains single-goroutine from the caller's perspective: Run
	// still may not be invoked concurrently.
	interOp int
	// intraOp is the real intra-op width: with n > 1 the session's
	// kernel pools run chunks on shared-pool helpers (NewParallelPool).
	intraOp   int
	record    bool                 // serial kernel pools record chunk durations (WithChunkRecord)
	unfused   bool                 // compile plans without the fuse pass (WithUnfusedPlans)
	execPool  *sched.Pool          // shared worker pool (default sched.Default)
	lease     *sched.Lease         // the session's adaptive claim on it
	leaseName string               // tenant name the claim registers under
	closed    bool                 // set by Close; Run then fails
	wctx      []*graph.ExecContext // per-helper contexts, built lazily
}

// Option configures a Session.
type Option func(*Session)

// WithDevice selects the device that prices operations (default
// CPUDevice).
func WithDevice(d Device) Option { return func(s *Session) { s.dev = d } }

// WithChunkRecord makes the session's serial kernel pools split every
// region and record its chunk durations into trace events' Regions,
// from which profiling.AtWidth prices any intra-op width. Pools made
// parallel by WithIntraOpWorkers do not record; results are identical.
func WithChunkRecord() Option { return func(s *Session) { s.record = true } }

// WithUnfusedPlans compiles plans without the fuse pass, so every
// graph op runs as its own step — the executor TensorFlow 0.8 was, whose
// op-level profiles the paper's figures characterise. core.Run, the
// profile path, sets it; results are bit-identical either way.
func WithUnfusedPlans() Option { return func(s *Session) { s.unfused = true } }

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
// up to n goroutines drawn from the shared worker pool. Chunk
// boundaries and float32 reduction order are fixed by trip count and
// grain — never by width — so results stay bit-identical to a serial
// session (and to any other intra-op × inter-op width). Takes
// precedence over WithChunkRecord, whose pools are serial.
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
		planCache: map[planKey]*Plan{},
		interOp:   1,
		intraOp:   1,
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
		name := s.leaseName
		if name == "" {
			name = "session"
		}
		s.lease = s.execPool.LeaseNamed(name, s.interOp*s.intraOp-1)
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
func (s *Session) IntraOpWorkers() int { return s.intraOp }

// Context exposes the session's execution context.
func (s *Session) Context() *graph.ExecContext { return s.ctx }

// Device returns the session's device.
func (s *Session) Device() Device { return s.dev }

// Arena exposes the session's slab (stats, tests).
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

// planKey names a fetch set: its graph and its fetches' node IDs. IDs
// alone are not enough — two builds of one workload (serve's batch
// ladder runs several on one session) number their nodes alike.
type planKey struct {
	g   *graph.Graph
	ids string
}

func keyOf(fetches []*graph.Node) planKey {
	b := make([]byte, 0, len(fetches)*4)
	for _, f := range fetches {
		id := f.ID()
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	k := planKey{ids: string(b)}
	if len(fetches) > 0 {
		k.g = fetches[0].Graph()
	}
	return k
}

// Plan returns the compiled plan for a fetch set, compiling and
// caching it if needed.
func (s *Session) Plan(fetches []*graph.Node) *Plan {
	key := keyOf(fetches)
	plan, ok := s.planCache[key]
	if !ok {
		plan = s.compile(fetches)
		s.planCache[key] = plan
	}
	return plan
}

// Run evaluates fetches given feeds, returning one tensor per fetch.
// The returned tensors never alias the slab: they remain valid
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
	cp := plan.cp // each entry is written before a later step reads it
	for i := range plan.steps {
		st := &plan.steps[i]
		if st.kind != graph.KindOp {
			continue
		}
		in := st.in
		for j, p := range st.ins {
			in[j] = values[p]
		}
		out, tm, err := s.execStep(s.ctx, st, in, guard)
		if err != nil {
			return fmt.Errorf("runtime: %v: %w", st.node, err)
		}
		if s.traceOn {
			// Critical path over the semantic constraints (data,
			// hazard, serial lane): the width-independent bound any
			// legal schedule and slab layout must respect.
			c := time.Duration(0)
			for _, p := range plan.predsCP[i] {
				if cp[p] > c {
					c = cp[p]
				}
			}
			cp[i] = c + tm.dur
			s.emit(st, s.clock, 0, tm, cp[i])
		}
		s.clock += tm.dur
		values[i] = out
	}
	return nil
}

// execStep runs one op step through the given execution context — the
// package's one call site of ForwardInto and View — bracketing
// slab access with the test-build guard, and has the session's
// device price the wall time it measured.
func (s *Session) execStep(ctx *graph.ExecContext, st *planStep, in []*tensor.Tensor, guard *tensor.BufferGuard) (*tensor.Tensor, opTiming, error) {
	if guard != nil {
		for _, sl := range st.readSlots {
			guard.BeginRead(sl.out.Data())
		}
		if st.out != nil {
			guard.BeginWrite(st.out.Data())
		}
		defer func() {
			if st.out != nil {
				guard.EndWrite(st.out.Data())
			}
			for _, sl := range st.readSlots {
				guard.EndRead(sl.out.Data())
			}
		}()
	}
	out := st.out
	var err error
	tm := opTiming{start: time.Now()}
	if st.view != nil {
		out, err = st.view.View(in)
	} else {
		err = st.kernel.ForwardInto(ctx, in, out)
	}
	tm.wall = time.Since(tm.start)
	tm.dur = s.dev.OpTime(st.nodes, tm.wall)
	tm.regions = ctx.Pool.TakeRegions()
	return out, tm, err
}

// emit appends one op step's trace event: where the simulation placed
// it (start, lane, critical-path finish) and what execStep measured.
func (s *Session) emit(st *planStep, start time.Duration, lane int, tm opTiming, cp time.Duration) {
	op, class := st.node.OpName(), st.node.Op().Class()
	if st.fused != nil {
		op, class = st.fused.name, st.fused.class
	}
	s.trace = append(s.trace, Event{
		Node: st.node, Op: op, Class: class,
		Start: start, Dur: tm.dur, Step: s.step,
		Worker: lane, Wall: tm.wall, WallStart: tm.start, Regions: tm.regions, CP: cp,
	})
}

// rank sets the ready queue's LPT keys: a step's own weight — its
// measured device time, or one op when nothing has been measured — plus
// the heaviest chain of scheduling successors hanging off it. Edges
// point forward in schedule order, so one reverse walk suffices.
func (p *Plan) rank(measured []opTiming) {
	for i := len(p.steps) - 1; i >= 0; i-- {
		if p.steps[i].kind != graph.KindOp {
			continue
		}
		h := int64(1)
		if measured != nil {
			h = int64(measured[i].dur)
		}
		var tail int64
		for _, sc := range p.succs[i] {
			if t := p.prio[sc]; t > tail {
				tail = t
			}
		}
		p.prio[i] = h + tail
	}
}

// MustRun is Run for tests and examples; it panics on error.
func (s *Session) MustRun(fetches []*graph.Node, feeds Feeds) []*tensor.Tensor {
	out, err := s.Run(fetches, feeds)
	if err != nil {
		panic(err)
	}
	return out
}
