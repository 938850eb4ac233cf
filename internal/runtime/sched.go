package runtime

// Parallel inter-op plan scheduler.
//
// A compiled Plan carries, besides its sequential schedule, the
// dependency-counting structure of a ready-queue scheduler: per-step
// successor lists and in-degrees over the data, variable-hazard and
// serial-Impure-lane edges of compile.go's constrain pass and the
// anti-dependency edges of its assign pass (a slot on floats an earlier
// slot held waits for that slot and all of its readers to retire).
//
// runParallel drains the ready queue with the session goroutine plus
// up to interOp-1 helpers leased from the shared worker pool
// (internal/sched) — no goroutines are spawned per Run. Helper
// acquisition is non-blocking: under pool pressure fewer helpers
// arrive and the caller absorbs the work, so progress never depends
// on other tenants of the pool. The queue is a max-heap ordered by
// longest processing time to a sink (critical-path-aware priority):
// among simultaneously ready steps the drain starts the one heading
// the heaviest remaining chain, which shrinks trailing stragglers and
// closes part of the achieved-vs-achievable gap `fathom profile`
// reports. Priorities start as compile-time chain lengths and are
// refreshed with measured durations after each parallel run; the
// determinism contract makes results independent of pop order, so the
// priority is pure scheduling policy.
//
// Each helper owns a private ExecContext (its own tensor.Pool, so
// kernel scratch space and chunk records stay goroutine-confined); the
// RNG is deliberately shared, protected by the serial Impure lane.
// Completion releases successors via atomic in-degree decrements; the
// heap's mutex plus the atomics establish the happens-before edges
// that make value propagation race-free.
//
// Timing follows the package's simulation philosophy: N simulated
// worker lanes each keep a clock, an op is assigned the lane that can
// start it earliest (list scheduling) at max(inputs' simulated
// finish, lane free), and the run's simulated makespan — not the sum
// of op durations — advances the session clock. Lanes are modeled
// rather than tied to host goroutines so the reported schedule
// reflects the configured width even on a single-core host. Trace
// events record the lane, the measured wall time, and the
// critical-path finish, from which internal/profiling derives
// achieved and achievable inter-op speedup per workload.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// readyHeap is the scheduler's ready queue: a mutex-protected max-heap
// keyed by plan priority (ties broken by schedule position, earliest
// first). pop blocks until an item arrives or the queue halts; halt
// wakes every waiter and makes pop fail fast even if items remain
// (error paths prefer stopping over draining).
type readyHeap struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []int32
	prio   []int64
	halted bool
}

func newReadyHeap(prio []int64, capHint int) *readyHeap {
	h := &readyHeap{prio: prio, items: make([]int32, 0, capHint)}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// less orders the max-heap: higher priority first, then earlier
// schedule position.
func (h *readyHeap) less(a, b int32) bool {
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}

func (h *readyHeap) push(i int32) {
	h.mu.Lock()
	h.items = append(h.items, i)
	// Sift up.
	c := len(h.items) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.less(h.items[c], h.items[p]) {
			break
		}
		h.items[c], h.items[p] = h.items[p], h.items[c]
		c = p
	}
	h.mu.Unlock()
	h.cond.Signal()
}

// pop blocks until an item or halt: the session goroutine's accessor,
// safe because that goroutine never occupies a shared-pool worker.
func (h *readyHeap) pop() (int32, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.items) == 0 && !h.halted {
		h.cond.Wait()
	}
	if h.halted {
		return 0, false
	}
	return h.popLocked(), true
}

// tryPop never blocks: helpers use it so an empty queue releases the
// pool worker instead of parking on it.
func (h *readyHeap) tryPop() (int32, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.halted || len(h.items) == 0 {
		return 0, false
	}
	return h.popLocked(), true
}

// hasWork reports whether a helper could be usefully acquired.
func (h *readyHeap) hasWork() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.halted && len(h.items) > 0
}

func (h *readyHeap) popLocked() int32 {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	// Sift down.
	p := 0
	for {
		l, r := 2*p+1, 2*p+2
		m := p
		if l < last && h.less(h.items[l], h.items[m]) {
			m = l
		}
		if r < last && h.less(h.items[r], h.items[m]) {
			m = r
		}
		if m == p {
			break
		}
		h.items[p], h.items[m] = h.items[m], h.items[p]
		p = m
	}
	return top
}

func (h *readyHeap) halt() {
	h.mu.Lock()
	h.halted = true
	h.mu.Unlock()
	h.cond.Broadcast()
}

// parRun is the shared state of one parallel Run's drain.
type parRun struct {
	plan      *Plan
	ready     *readyHeap
	indeg     []int32
	remaining atomic.Int32
	guard     *tensor.BufferGuard

	// Helper management: freeCtx holds the per-helper ExecContexts not
	// currently driving a helper; wg tracks live helpers. Helpers are
	// acquired lazily whenever ready work exists and returned to the
	// shared pool the moment the queue runs dry, so a drain stuck on a
	// serial stretch (the Impure lane, a long dependency chain) holds
	// zero pool workers for other tenants.
	ctxMu   sync.Mutex
	freeCtx []*graph.ExecContext
	wg      sync.WaitGroup

	mu       sync.Mutex // first error/panic
	firstErr error
	panicVal any
}

// runParallel executes the plan with the session goroutine plus up to
// s.interOp-1 leased helpers. It must only be called with plan.nOps >
// 1 and s.interOp > 1.
//
// On error the scheduler stops promptly, but independent operations
// already released — or in flight on other workers — may still
// execute before Run returns, so (unlike the sequential driver, which
// stops at the first error) variable state after a failed parallel
// Run is indeterminate. Successful Runs are bit-identical to
// sequential execution.
func (s *Session) runParallel(plan *Plan, feeds Feeds) error {
	if err := resolveNonOps(plan, feeds); err != nil {
		return err
	}

	workers := s.interOp
	if workers > plan.nOps {
		workers = plan.nOps
	}
	hctx := s.helperContexts(workers - 1)
	guard := s.arena.Guard()

	indeg := plan.indegRun
	copy(indeg, plan.indeg)

	pr := &parRun{
		plan:    plan,
		ready:   newReadyHeap(plan.prio, plan.nOps),
		indeg:   indeg,
		guard:   guard,
		freeCtx: append(make([]*graph.ExecContext, 0, len(hctx)), hctx...),
	}
	pr.remaining.Store(int32(plan.nOps))
	for i := range plan.steps {
		if plan.steps[i].kind == graph.KindOp && indeg[i] == 0 {
			pr.ready.push(int32(i))
		}
	}

	// Helpers come from the session's lease on the shared pool —
	// acquisition is non-blocking, and the caller participates in the
	// drain regardless, so a saturated pool degrades to (correct)
	// caller-only execution. topUpHelpers is called again whenever
	// steps become ready, so helpers released during serial stretches
	// come back as parallelism reappears.
	s.topUpHelpers(pr)
	// The session goroutine occupies no pool worker, so it may block on
	// the ready queue: it drains until the queue halts on completion or
	// error.
	s.drain(pr, s.ctx, pr.ready.pop)
	pr.wg.Wait()

	if pr.panicVal != nil {
		panic(pr.panicVal)
	}
	if pr.firstErr != nil {
		return pr.firstErr
	}
	s.simulateSchedule(plan, workers)
	// Refresh the ready queue's LPT keys from the run's measured
	// durations, so the next Run's drain orders ready steps by real
	// remaining work rather than chain length.
	plan.rank(plan.timing)
	return nil
}

// topUpHelpers acquires one leased helper per free helper context
// while ready work exists. Callers are always drain participants (the
// session goroutine or a live helper), so the WaitGroup counter can
// never be awaited concurrently with an Add from here.
func (s *Session) topUpHelpers(pr *parRun) {
	for pr.ready.hasWork() {
		pr.ctxMu.Lock()
		n := len(pr.freeCtx)
		if n == 0 {
			pr.ctxMu.Unlock()
			return
		}
		ctx := pr.freeCtx[n-1]
		pr.freeCtx = pr.freeCtx[:n-1]
		pr.ctxMu.Unlock()
		pr.wg.Add(1)
		ok := s.lease.TryRun(func() {
			defer pr.wg.Done()
			// A leased helper pops without blocking and returns as soon
			// as the queue is empty or halted, handing the pool worker
			// back instead of parking on it.
			s.drain(pr, ctx, pr.ready.tryPop)
			pr.ctxMu.Lock()
			pr.freeCtx = append(pr.freeCtx, ctx)
			pr.ctxMu.Unlock()
		})
		if !ok {
			pr.wg.Done()
			pr.ctxMu.Lock()
			pr.freeCtx = append(pr.freeCtx, ctx)
			pr.ctxMu.Unlock()
			return
		}
	}
}

// drain executes ready steps on ctx until pop yields none or the run
// stops.
func (s *Session) drain(pr *parRun, ctx *graph.ExecContext, pop func() (int32, bool)) {
	for {
		i, ok := pop()
		if !ok || !s.execReady(pr, i, ctx) {
			return
		}
	}
}

// execReady executes one ready step on ctx, releases its successors,
// and reports whether the drain should continue.
func (s *Session) execReady(pr *parRun, i int32, ctx *graph.ExecContext) bool {
	plan := pr.plan
	values := plan.values
	st := &plan.steps[i]
	in := st.in
	for j, p := range st.ins {
		in[j] = values[p]
	}
	var out *tensor.Tensor
	var tm opTiming
	var err error
	func() {
		// An op panic must not kill a pool worker's process; it is
		// re-raised on the calling goroutine after the drain joins,
		// preserving sequential Run semantics.
		defer func() {
			if p := recover(); p != nil {
				pr.mu.Lock()
				if pr.panicVal == nil {
					pr.panicVal = p
				}
				pr.mu.Unlock()
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		out, tm, err = s.execStep(ctx, st, in, pr.guard)
	}()
	if err != nil {
		pr.mu.Lock()
		if pr.firstErr == nil {
			pr.firstErr = fmt.Errorf("runtime: %v: %w", st.node, err)
		}
		pr.mu.Unlock()
		pr.ready.halt()
		return false
	}
	values[i] = out
	plan.timing[i] = tm

	released := false
	for _, sc := range plan.succs[i] {
		if atomic.AddInt32(&pr.indeg[sc], -1) == 0 {
			pr.ready.push(sc)
			released = true
		}
	}
	if pr.remaining.Add(-1) == 0 {
		pr.ready.halt()
		return false
	}
	if released {
		s.topUpHelpers(pr)
	}
	return true
}

// simulateSchedule computes the run's simulated parallel timeline
// after execution: list scheduling of the measured op durations over
// `workers` modeled lanes, in schedule order, constrained by the
// plan's full scheduling edge set (data, hazard, serial-lane and
// anti-dependency edges) — the same constraints the real scheduler
// enforces, so the modeled makespan is always a schedule the
// determinism contract permits. Decoupling the model from host
// goroutine interleaving makes the reported makespan, lane assignment
// and critical path deterministic given the durations (so a fully
// modeled device, like the roofline GPU, reproduces its profile
// exactly), and it reflects the configured width even on a
// single-core host — the same philosophy as tensor.Pool's intra-op
// model. Trace events are emitted in schedule order; the session
// clock advances by the makespan.
func (s *Session) simulateSchedule(plan *Plan, workers int) {
	// finish and cp need no reset: predecessors are op steps earlier in
	// the schedule, so every entry read below was written by this walk.
	finish := plan.finish
	cp := plan.cp
	lanes := make([]time.Duration, workers)
	base := s.clock
	var makespan time.Duration
	for i := range plan.steps {
		st := &plan.steps[i]
		if st.kind != graph.KindOp {
			continue
		}
		dur := plan.timing[i].dur
		var rdy, cpIn time.Duration
		for _, p := range plan.preds[i] {
			if f := finish[p]; f > rdy {
				rdy = f
			}
		}
		// Critical path over semantic constraints only, so the
		// achievable bound does not vary with this plan's (width-
		// dependent) buffer assignment.
		for _, p := range plan.predsCP[i] {
			if c := cp[p]; c > cpIn {
				cpIn = c
			}
		}
		lane := 0
		for l := 1; l < len(lanes); l++ {
			if lanes[l] < lanes[lane] {
				lane = l
			}
		}
		start := rdy
		if lanes[lane] > start {
			start = lanes[lane]
		}
		fin := start + dur
		lanes[lane] = fin
		finish[i] = fin
		cp[i] = cpIn + dur
		if fin > makespan {
			makespan = fin
		}
		if s.traceOn {
			s.emit(st, base+start, lane, plan.timing[i], cp[i])
		}
	}
	s.clock = base + makespan
}

// helperContexts returns n execution contexts for drain helpers (the
// session goroutine itself uses s.ctx), creating them on first use
// and syncing the run-scoped fields. Each helper owns a distinct
// tensor.Pool — built at the session's configured width, which like
// every pool's is a constructor argument and never changes — so kernel
// scratch buffers and chunk records stay goroutine-confined;
// the RNG pointer is shared deliberately — the plan's serial Impure
// lane guarantees at most one RNG consumer runs at a time, in
// schedule order, so WithSeed replay matches sequential execution.
func (s *Session) helperContexts(n int) []*graph.ExecContext {
	for len(s.wctx) < n {
		s.wctx = append(s.wctx, &graph.ExecContext{Pool: s.newKernelPool()})
	}
	out := s.wctx[:n]
	for _, c := range out {
		c.RNG = s.ctx.RNG
		c.Training = s.ctx.Training
		c.Step = s.ctx.Step
	}
	return out
}

// newKernelPool builds a kernel pool matching the session's intra-op
// configuration: a real parallel pool over the session's lease when
// WithIntraOpWorkers is set, otherwise a serial pool — recording under
// WithChunkRecord, where any width above 1 splits the same chunks.
func (s *Session) newKernelPool() *tensor.Pool {
	if s.intraOp > 1 {
		return tensor.NewParallelPool(s.intraOp, s.lease)
	}
	if s.record {
		return tensor.NewPool(2)
	}
	return tensor.NewPool(1)
}
