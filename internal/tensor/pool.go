package tensor

import (
	"sync"
	"sync/atomic"
	"time"
)

// Executor supplies helper goroutines to a parallel Pool. It is
// implemented by sched.Pool and sched.Lease (the tensor package stays
// dependency-free by naming only the interface). TryRun must never
// block: it either accepts the task — which then must run — or reports
// false, in which case the pool runs the chunk on the calling
// goroutine instead.
type Executor interface {
	TryRun(task func()) bool
}

// Pool runs the chunked loops of tensor kernels — the analogue of the
// Eigen thread pool TensorFlow used on CPUs when the paper was
// written. The matmul, conv, reduce and element-wise kernels all drive
// it through For, ForLane and run, and a region runs one of three ways:
//
//   - Inline: at width 1, or when a region does not split, chunks run
//     in order on the calling goroutine and nothing is recorded.
//   - Recorded serial (NewPool(n), n > 1): chunks run in order on the
//     calling goroutine and each split region's chunk durations are
//     appended to a record (TakeRegions). Chunks do not depend on
//     width, so one record prices every modeled width offline
//     (profiling.AtWidth, the paper's Fig. 6 axis), whatever cores
//     the host has.
//   - Parallel (NewParallelPool): chunks run on up to Workers
//     goroutines — the caller plus helpers drawn non-blockingly from
//     a shared Executor (the process-wide sched pool). Helper
//     scarcity degrades to serial execution on the caller, never
//     blocks, never deadlocks.
//
// # Determinism contract
//
// Chunk boundaries are a function of the trip count and grain only —
// never of the worker count and never of how many helpers showed up —
// so the chunks of a region are identical at every configured width.
// For's body must be index-pure (chunk [lo,hi) writes only outputs
// indexed by [lo,hi) and reads no other chunk's output), which makes
// results bit-identical across widths and lane assignments. The one
// reduction kernel (reduce.go) carries cross-chunk float32 reductions
// by combining per-chunk partials in ascending chunk order, at every
// width including 1, so reductions are bit-identical too. The
// determinism harness
// (internal/models/determinism_test.go) pins this across intra-op ×
// inter-op width combinations for all ten workloads.
//
// A Pool is confined to one goroutine from the caller's perspective:
// only the parallel behaviour fans chunks out, and every region joins
// before For returns. Width is fixed at construction.
type Pool struct {
	workers int
	exec    Executor

	// record holds the chunk durations of every region a recording
	// pool split since the last TakeRegions, one slice per region.
	record [][]time.Duration

	// Persistent per-lane kernel scratch (see laneScratch). Lane 0 is
	// the calling goroutine; parallel helpers use lanes 1..Workers-1.
	// They survive across operations so steady-state kernels allocate
	// nothing.
	lanes []laneScratchSet
}

type laneScratchSet [scratchSlots][]float32

// Scratch slot assignments for the pool's kernel workspaces. Kernels
// may nest (Conv2D's im2col path and attention call the matmul
// kernel), so each concern owns a distinct slot.
const (
	scratchPackA     = iota // matmul: packed A panel (per lane)
	scratchPackB            // matmul: packed B panels (per lane; lane 0's when a slab splits)
	scratchIm2col           // conv: im2col patch matrix (caller-side)
	scratchAttn             // attention: one R×S score block, R = min(S, blockM) (per lane)
	scratchLRN              // LRN: one pixel's squares, scales and powers (per lane)
	scratchReduce           // reduction: chunk partials (caller-side, disjoint per chunk)
	scratchPointwise        // block evaluator: one block per load and intermediate (per lane)
	scratchSlots
)

// maxRegionChunks caps how many chunks one region splits into. The cap
// is a constant — independent of worker count — so boundaries never
// depend on width; it merely bounds per-chunk bookkeeping while
// keeping enough chunks (4× a typical width) for load balance.
const maxRegionChunks = 32

// regionChunks is the deterministic chunking rule shared by all three
// behaviours and every For variant: purely a function of (n, grain).
// A region below 2×grain does not split; otherwise it splits into
// n/grain chunks (each at least grain iterations) capped at
// maxRegionChunks.
func regionChunks(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	if n < 2*grain {
		return 1
	}
	c := n / grain
	if c > maxRegionChunks {
		c = maxRegionChunks
	}
	return c
}

// chunkBounds returns chunk i of [0,n) split into `chunks` pieces.
// Boundaries i*n/chunks are strictly increasing because chunks <=
// n/grain <= n, which also keeps every chunk at least grain iterations
// (floor(n/chunks) >= grain); no chunk is ever empty.
// TestPoolChunkAccounting pins both invariants across a sweep of
// (n, grain, workers).
func chunkBounds(n, chunks, i int) (lo, hi int) {
	return i * n / chunks, (i + 1) * n / chunks
}

// NewPool returns a serial pool of width n: inline at n = 1, recorded
// serial above it. n < 1 is treated as 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	return &Pool{workers: n, lanes: make([]laneScratchSet, 1)}
}

// NewParallelPool returns a pool that really executes chunks on up to
// n goroutines: the caller plus helpers drawn from ex. A nil ex or
// n <= 1 yields caller-only execution (still deterministic — the
// chunking rule does not change with width).
func NewParallelPool(n int, ex Executor) *Pool {
	p := NewPool(n)
	p.exec = ex
	return p
}

// Workers returns the pool width: the max concurrent executors of a
// parallel pool; above 1, a serial pool records its regions.
func (p *Pool) Workers() int { return p.workers }

// TakeRegions returns the chunk durations recorded since the last call
// — one entry per split region, one duration per chunk in chunk order
// — and clears the record. Only a serial pool wider than 1 records;
// any other pool returns nil.
func (p *Pool) TakeRegions() [][]time.Duration {
	r := p.record
	p.record = nil
	return r
}

// growLanes ensures per-lane scratch exists for lanes [0,n). It runs
// on the owning goroutine before helpers spawn, so laneScratch never
// appends concurrently.
func (p *Pool) growLanes(n int) {
	for len(p.lanes) < n {
		p.lanes = append(p.lanes, laneScratchSet{})
	}
}

// laneScratch returns lane's persistent workspace for a slot, grown to
// at least n elements. Contents are unspecified. A lane is owned by
// exactly one executing goroutine at a time (the chunk driver hands
// each concurrent executor a distinct lane), so per-lane buffers are
// race-free without locking.
func (p *Pool) laneScratch(lane, slot, n int) []float32 {
	b := p.lanes[lane][slot]
	if cap(b) < n {
		b = make([]float32, n)
		p.lanes[lane][slot] = b
	}
	return b[:n]
}

// scratchBuf returns lane 0's workspace for a slot: the caller-side
// scratch used outside parallel regions (packed B panels, im2col patch
// matrices).
func (p *Pool) scratchBuf(slot, n int) []float32 {
	return p.laneScratch(0, slot, n)
}

// For executes fn over [0,n) in chunks fixed by (n, grain); see the
// determinism contract above. fn must be index-pure: chunk [lo,hi)
// writes only outputs indexed by it. A serial pool runs chunks in
// order (recording them above width 1); a parallel pool runs them on
// the caller plus available helpers. Either way every chunk completes
// before For returns.
//
// grain is the minimum number of iterations that justifies splitting:
// if n < grain*2 or the pool has one worker, the loop runs as a single
// serial chunk and is not recorded — a coalescing that index-purity
// makes bitwise invisible.
func (p *Pool) For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.inline(n, grain) {
		fn(0, n)
		return
	}
	p.run(n, regionChunks(n, grain), func(lane, chunk, lo, hi int) { fn(lo, hi) })
}

// ForLane is For for kernels that need per-executor scratch: fn
// additionally receives the lane owning the chunk, valid for
// laneScratch access. Lanes identify concurrent executors, not chunks
// — two chunks may share a lane (sequentially), and which lane runs
// which chunk is not deterministic; only per-chunk outputs are, so the
// index-purity contract applies unchanged and lane state must not leak
// into results.
func (p *Pool) ForLane(n, grain int, fn func(lane, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.inline(n, grain) {
		fn(0, 0, n)
		return
	}
	p.run(n, regionChunks(n, grain), func(lane, chunk, lo, hi int) { fn(lane, lo, hi) })
}

// inline reports whether For and ForLane run a region of n iterations
// as one call on the caller — fn(0, n), lane 0 — because it does not
// split or the pool has one worker. This is the one place that rule
// lives. The fn they take escapes (a helper goroutine may run it), so
// building a closure for them allocates even when the region runs
// inline; a kernel that must allocate nothing in that case asks inline
// first and calls its loop body directly.
func (p *Pool) inline(n, grain int) bool {
	return p.workers == 1 || regionChunks(n, grain) == 1
}

// run drives the chunks of a split region under the pool's behaviour:
// in order (width 1), in order and recorded (serial, wider than 1), or
// on the caller plus helpers (parallel). The chunk set is identical
// under all three. fn receives the executing lane (0 unless parallel),
// the chunk index and its bounds.
func (p *Pool) run(n, chunks int, fn func(lane, chunk, lo, hi int)) {
	switch {
	case p.workers == 1:
		for c := 0; c < chunks; c++ {
			lo, hi := chunkBounds(n, chunks, c)
			fn(0, c, lo, hi)
		}
	case p.exec == nil:
		durs := make([]time.Duration, chunks)
		for c := range durs {
			lo, hi := chunkBounds(n, chunks, c)
			t0 := time.Now()
			fn(0, c, lo, hi)
			durs[c] = time.Since(t0)
		}
		p.record = append(p.record, durs)
	default:
		p.runChunks(n, chunks, fn)
	}
}

// runChunks is the parallel chunk driver: a shared atomic
// cursor feeds chunks to the caller (lane 0) and up to Workers-1
// helpers acquired non-blockingly from the Executor (each on a
// distinct lane, so laneScratch stays executor-private). The caller
// always participates, so progress never depends on helper
// availability. A panic on a helper is captured and re-raised on the
// calling goroutine after every lane has joined, preserving a serial
// pool's panic semantics.
func (p *Pool) runChunks(n, chunks int, fn func(lane, chunk, lo, hi int)) {
	p.growLanes(p.workers)
	var cursor atomic.Int64
	run := func(lane int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= chunks {
				return
			}
			lo, hi := chunkBounds(n, chunks, i)
			fn(lane, i, lo, hi)
		}
	}
	helpers := p.workers - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	var (
		wg    sync.WaitGroup
		pmu   sync.Mutex
		pval  any
		pseen bool
	)
	for h := 1; h <= helpers; h++ {
		lane := h
		wg.Add(1)
		ok := p.exec.TryRun(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pmu.Lock()
					if !pseen {
						pseen, pval = true, r
					}
					pmu.Unlock()
				}
			}()
			run(lane)
		})
		if !ok {
			wg.Done()
			break // no helper free: the caller absorbs the rest
		}
	}
	// Join helpers even if the caller's own chunk panics: they may be
	// touching lane scratch this pool owns.
	defer func() {
		wg.Wait()
		if pseen {
			panic(pval)
		}
	}()
	run(0)
}
