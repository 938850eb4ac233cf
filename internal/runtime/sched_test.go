package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// assertSameTensors fails if a and b differ bitwise, NaNs of any payload
// counting as equal (which operand's payload survives an x86 add depends
// on operand order, not on the value). Comparing with != instead fails
// two identical NaNs and passes +0 against −0.
func assertSameTensors(t *testing.T, label string, a, b []*tensor.Tensor) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d tensors", label, len(a), len(b))
	}
	for i := range a {
		if !tensor.SameShape(a[i].Shape(), b[i].Shape()) {
			t.Fatalf("%s[%d]: shape %v vs %v", label, i, a[i].Shape(), b[i].Shape())
		}
		ad, bd := a[i].Data(), b[i].Data()
		for j := range ad {
			if x, y := ad[j], bd[j]; math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
				t.Fatalf("%s[%d]: element %d differs: %v vs %v", label, i, j, x, y)
			}
		}
	}
}

func assertSameVariables(t *testing.T, ga, gb *graph.Graph) {
	t.Helper()
	va, vb := ga.Variables(), gb.Variables()
	if len(va) != len(vb) {
		t.Fatalf("variable count %d vs %d", len(va), len(vb))
	}
	for i := range va {
		assertSameTensors(t, "variable "+va[i].Name(), []*tensor.Tensor{va[i].Value()}, []*tensor.Tensor{vb[i].Value()})
	}
}

// TestParallelMatchesSequentialChain: a linear chain leaves no
// parallelism, but the scheduler must still produce identical results.
func TestParallelMatchesSequentialChain(t *testing.T) {
	g1, x1, _, y1 := buildChain()
	g2, x2, _, y2 := buildChain()
	_, _ = g1, g2
	feedA := Feeds{x1: tensor.Ones(4, 8)}
	feedB := Feeds{x2: tensor.Ones(4, 8)}
	ser := NewSession(g1)
	par := NewSession(g2, WithInterOpWorkers(4))
	for i := 0; i < 3; i++ {
		a := ser.MustRun([]*graph.Node{y1}, feedA)
		b := par.MustRun([]*graph.Node{y2}, feedB)
		assertSameTensors(t, "chain run", a, b)
	}
}

// buildWide constructs a graph with many independent branches summed
// at the end — the residual/memnet shape the scheduler exists for.
func buildWide(branches, depth int) (*graph.Graph, *graph.Node, *graph.Node) {
	g := graph.New()
	x := g.Placeholder("x", 16, 16)
	var tails []*graph.Node
	for b := 0; b < branches; b++ {
		w := g.Variable(fmt.Sprintf("w%d", b), tensor.Full(0.05+0.01*float32(b), 16, 16))
		h := x
		for d := 0; d < depth; d++ {
			h = ops.Relu(ops.MatMul(h, w))
		}
		tails = append(tails, h)
	}
	sum := tails[0]
	for _, tl := range tails[1:] {
		sum = ops.Add(sum, tl)
	}
	return g, x, sum
}

// TestParallelWideGraphBitIdentical: independent branches execute
// concurrently yet produce bit-identical fetches, with the arena
// guard attached to catch any slot-lifetime violation.
func TestParallelWideGraphBitIdentical(t *testing.T) {
	g1, x1, y1 := buildWide(6, 4)
	g2, x2, y2 := buildWide(6, 4)
	feed1 := Feeds{x1: tensor.Ones(16, 16)}
	feed2 := Feeds{x2: tensor.Ones(16, 16)}
	ser := NewSession(g1)
	par := NewSession(g2, WithInterOpWorkers(4))
	guard := tensor.NewBufferGuard()
	par.Arena().SetGuard(guard)
	for i := 0; i < 4; i++ {
		a := ser.MustRun([]*graph.Node{y1}, feed1)
		b := par.MustRun([]*graph.Node{y2}, feed2)
		assertSameTensors(t, "wide run", a, b)
	}
	if v := guard.Violations(); len(v) != 0 {
		t.Fatalf("arena guard violations: %v", v)
	}
}

// TestParallelSeedReplay: stochastic graphs must replay identically
// for any inter-op width — the serial Impure lane contract.
func TestParallelSeedReplay(t *testing.T) {
	build := func() (*graph.Graph, *graph.Node) {
		g := graph.New()
		a := ops.RandomStandardNormal(g, 8, 8)
		b := ops.RandomUniform(g, 8, 8)
		c := ops.RandomUniform(g, 8, 8)
		// Independent consumers of independent samples: without the
		// serial lane, draw order (and thus values) would race.
		y := ops.Add(ops.Relu(a), ops.Add(ops.Square(b), ops.Relu(c)))
		return g, y
	}
	run := func(interop int) [][]*tensor.Tensor {
		g, y := build()
		s := NewSession(g, WithSeed(42), WithInterOpWorkers(interop))
		var out [][]*tensor.Tensor
		for i := 0; i < 3; i++ {
			out = append(out, s.MustRun([]*graph.Node{y}, nil))
		}
		return out
	}
	serial := run(1)
	serialAgain := run(1)
	par := run(4)
	for i := range serial {
		assertSameTensors(t, "serial replay", serial[i], serialAgain[i])
		assertSameTensors(t, "parallel replay", serial[i], par[i])
	}
}

// TestParallelTrainingBitIdentical: a training step with dropout and
// in-place optimizer updates — the full hazard surface (RNG order,
// variable read/write serialization, slab sharing) — must leave
// bit-identical weights and losses for any worker count.
func TestParallelTrainingBitIdentical(t *testing.T) {
	build := func() (*graph.Graph, *graph.Node, []*graph.Node, *graph.Node) {
		g := graph.New()
		x := g.Placeholder("x", 4, 8)
		w1 := g.Variable("w1", tensor.Full(0.1, 8, 8))
		w2 := g.Variable("w2", tensor.Full(0.2, 8, 8))
		h := ops.Dropout(ops.Relu(ops.MatMul(x, w1)), 0.3)
		y := ops.MatMul(h, w2)
		loss := ops.Sum(ops.Square(y))
		grads, err := graph.Gradients(loss, []*graph.Node{w1, w2})
		if err != nil {
			panic(err)
		}
		u1 := ops.ApplySGD(w1, grads[0], 0.01)
		u2 := ops.ApplySGD(w2, grads[1], 0.01)
		return g, x, []*graph.Node{loss, u1, u2}, loss
	}
	run := func(interop int) (*graph.Graph, []float32) {
		g, x, fetches, _ := build()
		s := NewSession(g, WithSeed(7), WithInterOpWorkers(interop))
		s.SetTraining(true)
		guard := tensor.NewBufferGuard()
		s.Arena().SetGuard(guard)
		var losses []float32
		feed := Feeds{x: tensor.Full(0.5, 4, 8)}
		for i := 0; i < 5; i++ {
			out := s.MustRun(fetches, feed)
			losses = append(losses, out[0].Data()[0])
		}
		if v := guard.Violations(); len(v) != 0 {
			t.Fatalf("arena guard violations: %v", v)
		}
		return g, losses
	}
	gSer, lossSer := run(1)
	gPar, lossPar := run(4)
	for i := range lossSer {
		if lossSer[i] != lossPar[i] {
			t.Fatalf("step %d loss diverges: serial %v parallel %v", i, lossSer[i], lossPar[i])
		}
	}
	assertSameVariables(t, gSer, gPar)
}

// TestPlanRecordsSchedulingEdges: the compile-time dependency analysis
// must include variable hazard edges (the gradient kernel reading w2
// is ordered before w2's in-place update) and count the op steps.
func TestPlanRecordsSchedulingEdges(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 2, 4)
	w1 := g.Variable("w1", tensor.Full(0.1, 4, 4))
	w2 := g.Variable("w2", tensor.Full(0.2, 4, 4))
	y := ops.MatMul(ops.MatMul(x, w1), w2)
	loss := ops.Sum(y)
	grads, err := graph.Gradients(loss, []*graph.Node{w1, w2})
	if err != nil {
		t.Fatal(err)
	}
	u1 := ops.ApplySGD(w1, grads[0], 0.1)
	u2 := ops.ApplySGD(w2, grads[1], 0.1)
	s := NewSession(g)
	plan := s.Plan([]*graph.Node{loss, u1, u2})
	if plan.Ops() == 0 || plan.Edges() == 0 {
		t.Fatalf("plan should record ops and edges, got %d/%d", plan.Ops(), plan.Edges())
	}
	// Locate the update of w2 and the MatMul gradient that reads w2;
	// the hazard analysis must have ordered reader before writer.
	var upPos, readerPos = -1, -1
	for i, st := range plan.steps {
		if st.kind != graph.KindOp {
			continue
		}
		if st.node == u2 {
			upPos = i
		}
		if st.node != u2 && st.node != y {
			for _, in := range st.node.Inputs() {
				if in == w2 {
					readerPos = i
				}
			}
		}
	}
	if upPos < 0 || readerPos < 0 {
		t.Fatalf("did not find update (%d) or reader (%d) steps", upPos, readerPos)
	}
	// The reader must reach the update through scheduling edges.
	reach := map[int32]bool{}
	var stack []int32
	push := func(js []int32) {
		for _, j := range js {
			if !reach[j] {
				reach[j] = true
				stack = append(stack, j)
			}
		}
	}
	push(plan.succs[readerPos])
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(plan.succs[j])
	}
	if !reach[int32(upPos)] {
		t.Fatalf("variable reader at %d is not ordered before update at %d", readerPos, upPos)
	}
}

// TestParallelTraceTimeline: trace events carry worker ids, wall
// times, and critical-path finishes; the simulated clock advances by
// the parallel makespan, which on a wide graph is strictly less than
// the serial op-time sum.
func TestParallelTraceTimeline(t *testing.T) {
	g, x, y := buildWide(6, 3)
	s := NewSession(g, WithInterOpWorkers(4), WithTrace())
	s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(16, 16)})
	events := s.Trace()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	var serial, maxCP time.Duration
	workers := map[int]bool{}
	for _, e := range events {
		serial += e.Dur
		if e.CP > maxCP {
			maxCP = e.CP
		}
		workers[e.Worker] = true
		if e.CP < e.Dur {
			t.Fatalf("critical path %v below own duration %v", e.CP, e.Dur)
		}
	}
	makespan := s.SimTime()
	if makespan > serial {
		t.Fatalf("parallel makespan %v exceeds serial sum %v", makespan, serial)
	}
	if makespan < maxCP {
		t.Fatalf("makespan %v below critical path %v", makespan, maxCP)
	}
	if makespan >= serial {
		t.Fatalf("6 independent branches on 4 workers should overlap: makespan %v, serial %v", makespan, serial)
	}
	if len(workers) < 2 {
		t.Fatalf("expected multiple workers to execute, saw %v", workers)
	}
}

// TestParallelMissingFeedAndErrors: the parallel path must report the
// same feed validation errors as sequential execution.
func TestParallelMissingFeedAndErrors(t *testing.T) {
	g, x, _, y := buildChain()
	_, _ = g, x
	s := NewSession(g, WithInterOpWorkers(4))
	if _, err := s.Run([]*graph.Node{y}, nil); err == nil {
		t.Fatal("expected missing-feed error")
	}
	if _, err := s.Run([]*graph.Node{y}, Feeds{x: tensor.Ones(9, 9)}); err == nil {
		t.Fatal("expected feed shape error")
	}
	// After errors, a correct run must still work (scheduler state is
	// per-run).
	out := s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(4, 8)})
	if len(out) != 1 {
		t.Fatal("recovery run failed")
	}
}

// failingOp errors when run (after shape inference).
type failingOp struct{}

func (failingOp) Name() string         { return "Failing" }
func (failingOp) Class() graph.OpClass { return graph.ClassElementwise }
func (failingOp) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (failingOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return fmt.Errorf("deliberate failure")
}

// panickyOp panics when run.
type panickyOp struct{}

func (panickyOp) Name() string         { return "Panicky" }
func (panickyOp) Class() graph.OpClass { return graph.ClassElementwise }
func (panickyOp) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (panickyOp) ForwardInto(ctx *graph.ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	panic("deliberate panic")
}

// TestParallelOpErrorPropagates: an op error inside a worker fails the
// Run with the sequential error format and stops the scheduler.
func TestParallelOpErrorPropagates(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 4, 4)
	bad := g.MustApply(failingOp{}, ops.Relu(x))
	y := ops.Add(ops.Square(x), bad)
	s := NewSession(g, WithInterOpWorkers(3))
	_, err := s.Run([]*graph.Node{y}, Feeds{x: tensor.Ones(4, 4)})
	if err == nil {
		t.Fatal("expected op error")
	}
}

// TestParallelPanicRethrown: a panic inside a worker is re-raised on
// the calling goroutine, matching sequential Run semantics (and the
// serving engine's batch containment relies on it being catchable).
func TestParallelPanicRethrown(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 4, 4)
	bad := g.MustApply(panickyOp{}, ops.Relu(x))
	y := ops.Add(ops.Square(x), bad)
	s := NewSession(g, WithInterOpWorkers(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected the worker panic to be re-raised on the caller")
		}
	}()
	_, _ = s.Run([]*graph.Node{y}, Feeds{x: tensor.Ones(4, 4)})
}

// ---- property/fuzz test: random DAGs ----

// randomDAG builds a deterministic pseudo-random training graph:
// random fan-in/fan-out over (4,6) tensors with a stateful-op mix
// (dropout, RNG sampling, in-place SGD updates), view chains, the
// element-wise ops the fuse pass joins — over operands of shape (4,1),
// (6) and (1,2,6), the last under a (2,2,6) view, and last-axis Slices
// of wider products — a loss, fetched
// intermediates and gradient-descent updates. Half the picks take the
// newest node, so single-reader chains form next to values with several
// readers. Built twice with the same seed it yields structurally
// identical graphs.
func randomDAG(seed int64, size int) (*graph.Graph, *graph.Node, []*graph.Node) {
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	x := g.Placeholder("x", 4, 6)
	v1 := g.Variable("v1", tensor.Full(0.07, 4, 6))
	v2 := g.Variable("v2", tensor.Full(-0.05, 4, 6))
	w := g.Variable("w", tensor.Full(0.11, 6, 6))
	wide := g.Variable("wide", tensor.Full(0.03, 6, 12))
	bias := g.Variable("bias", tensor.Full(0.2, 6))
	pos := g.Variable("pos", tensor.Full(-0.1, 1, 2, 6))
	cur := ops.Add(ops.MatMul(ops.Add(x, v1), w), v2)
	pool := []*graph.Node{cur}
	pick := func() *graph.Node {
		if r.Intn(2) == 0 {
			return pool[len(pool)-1]
		}
		return pool[r.Intn(len(pool))]
	}
	for i := 0; i < size; i++ {
		var nd *graph.Node
		switch r.Intn(16) {
		case 0:
			nd = ops.Relu(pick())
		case 1:
			nd = ops.Square(pick())
		case 2:
			nd = ops.Add(pick(), pick())
		case 3:
			nd = ops.Mul(pick(), pick())
		case 4:
			nd = ops.MatMul(pick(), w)
		case 5:
			nd = ops.Dropout(pick(), 0.2)
		case 6:
			nd = ops.Add(pick(), ops.RandomUniform(g, 4, 6))
		case 7:
			// View chain: exercises the alias analysis and anti-edges.
			nd = ops.Reshape(ops.Reshape(pick(), 6, 4), 4, 6)
		case 8:
			// A view of whatever the pick is: a slot, a view, a sample.
			nd = ops.Identity(pick())
		case 9:
			nd = ops.Sigmoid(pick())
		case 10:
			nd = ops.Tanh(pick())
		case 11:
			nd = ops.Sub(pick(), pick())
		case 12:
			nd = ops.Mul(pick(), bias) // a column broadcast (6)
		case 13:
			nd = ops.Sub(pick(), ops.SumKeep(pick(), 1)) // a row broadcast (4,1)
		case 14:
			// A window onto a wider product, at any column offset.
			nd = ops.SliceN(ops.MatMul(pick(), wide), []int{0, r.Intn(7)}, []int{-1, 6})
		case 15:
			// A broadcast along the leading axis of a (2,2,6) view, which
			// the Tanh reading the sum fuses as an operand.
			nd = ops.Reshape(ops.Tanh(ops.Add(ops.Reshape(pick(), 2, 2, 6), pos)), 4, 6)
		}
		pool = append(pool, nd)
	}
	// Sum a few tails so late nodes reach the loss.
	loss := ops.Sum(pool[len(pool)-1])
	for i := 0; i < 2; i++ {
		loss = ops.Add(loss, ops.Sum(pick()))
	}
	params := []*graph.Node{v1, v2, w, wide, bias, pos}
	grads, err := graph.Gradients(loss, params)
	if err != nil {
		panic(err)
	}
	fetches := []*graph.Node{loss, pick(), pick()}
	for i, v := range params {
		if grads[i] != nil { // wide, bias and pos reach the loss only if drawn
			fetches = append(fetches, ops.ApplySGD(v, grads[i], 0.003))
		}
	}
	return g, x, fetches
}

// TestSchedulerPropertyRandomDAGs is the scheduler's property test:
// for a sweep of random graphs, parallel execution must equal
// sequential execution bitwise — fetches and trained variables — and
// the arena guard must observe no slab range being written while
// readers of an overlapping range are outstanding.
func TestSchedulerPropertyRandomDAGs(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			size := 10 + int(seed*7)%30
			gSer, xSer, fSer := randomDAG(seed, size)
			gPar, xPar, fPar := randomDAG(seed, size)
			ser := NewSession(gSer, WithSeed(100+seed))
			par := NewSession(gPar, WithSeed(100+seed), WithInterOpWorkers(4))
			ser.SetTraining(true)
			par.SetTraining(true)
			guard := tensor.NewBufferGuard()
			par.Arena().SetGuard(guard)
			feedS := Feeds{xSer: tensor.Full(0.3, 4, 6)}
			feedP := Feeds{xPar: tensor.Full(0.3, 4, 6)}
			for run := 0; run < 3; run++ {
				a, err := ser.Run(fSer, feedS)
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.Run(fPar, feedP)
				if err != nil {
					t.Fatal(err)
				}
				assertSameTensors(t, fmt.Sprintf("run %d fetches", run), a, b)
			}
			assertSameVariables(t, gSer, gPar)
			if v := guard.Violations(); len(v) != 0 {
				t.Fatalf("arena guard violations: %v", v)
			}
			for _, s := range []*Session{ser, par} {
				if err := CheckCachedPlans(s); err != nil {
					t.Fatalf("inter-op %d: %v", s.InterOpWorkers(), err)
				}
			}
		})
	}
}

// TestParallelComposesWithGPUDevice: inter-op width composes with the
// other session options (device, chunk record).
func TestParallelComposesWithGPUDevice(t *testing.T) {
	g1, x1, y1 := buildWide(4, 2)
	g2, x2, y2 := buildWide(4, 2)
	ser := NewSession(g1, WithDevice(NewGTX960()), WithChunkRecord())
	par := NewSession(g2, WithDevice(NewGTX960()), WithChunkRecord(), WithInterOpWorkers(3))
	a := ser.MustRun([]*graph.Node{y1}, Feeds{x1: tensor.Ones(16, 16)})
	b := par.MustRun([]*graph.Node{y2}, Feeds{x2: tensor.Ones(16, 16)})
	assertSameTensors(t, "gpu wide", a, b)
}

// TestVariableReadThroughViewIsHazardOrdered: an op that reads a
// variable through a view (MatMul of Reshape(w)) on a side branch that
// does not feed the gradient chain must still be ordered against w's
// in-place update — the alias-propagating hazard analysis, not just
// direct-input detection.
func TestVariableReadThroughViewIsHazardOrdered(t *testing.T) {
	build := func() (*graph.Graph, *graph.Node, []*graph.Node) {
		g := graph.New()
		x := g.Placeholder("x", 4, 4)
		w := g.Variable("w", tensor.Full(0.2, 4, 4))
		// Side output reading w only through a view; not an ancestor
		// of the loss, so no data edge orders it against the update.
		side := ops.MatMul(x, ops.Reshape(w, 4, 4))
		loss := ops.Sum(ops.MatMul(x, w))
		grads, err := graph.Gradients(loss, []*graph.Node{w})
		if err != nil {
			panic(err)
		}
		up := ops.ApplySGD(w, grads[0], 0.1)
		return g, x, []*graph.Node{loss, side, up}
	}

	// Structural check: the view reader reaches the update through
	// scheduling edges.
	g, _, fetches := build()
	s := NewSession(g)
	plan := s.Plan(fetches)
	var readerPos, upPos = -1, -1
	for i, st := range plan.steps {
		if st.kind != graph.KindOp {
			continue
		}
		if st.node == fetches[1] {
			readerPos = i
		}
		if st.node == fetches[2] {
			upPos = i
		}
	}
	if readerPos < 0 || upPos < 0 {
		t.Fatalf("missing reader (%d) or update (%d)", readerPos, upPos)
	}
	reach := map[int32]bool{}
	stack := append([]int32(nil), plan.succs[readerPos]...)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[j] {
			continue
		}
		reach[j] = true
		stack = append(stack, plan.succs[j]...)
	}
	if !reach[int32(upPos)] {
		t.Fatal("view-mediated variable reader is not ordered before the in-place update")
	}

	// Behavioral check: serial and parallel stay bit-identical across
	// update steps (the side fetch must read pre-update w each step).
	gS, xS, fS := build()
	gP, xP, fP := build()
	ser := NewSession(gS)
	par := NewSession(gP, WithInterOpWorkers(4))
	for i := 0; i < 4; i++ {
		a := ser.MustRun(fS, Feeds{xS: tensor.Ones(4, 4)})
		b := par.MustRun(fP, Feeds{xP: tensor.Ones(4, 4)})
		assertSameTensors(t, fmt.Sprintf("run %d", i), a, b)
	}
	assertSameVariables(t, gS, gP)
}

// TestParallelSimTimelineDeterministic: with a fully modeled device
// (roofline GPU), the simulated makespan, lane assignment and
// critical path must be identical across repeated identical runs —
// the post-execution list-scheduling pass is independent of host
// goroutine interleaving.
func TestParallelSimTimelineDeterministic(t *testing.T) {
	measure := func() (time.Duration, []Event) {
		g, x, y := buildWide(6, 3)
		s := NewSession(g, WithDevice(NewGTX960()), WithInterOpWorkers(4), WithTrace())
		s.MustRun([]*graph.Node{y}, Feeds{x: tensor.Ones(16, 16)})
		return s.SimTime(), s.Trace()
	}
	sim1, ev1 := measure()
	sim2, ev2 := measure()
	if sim1 != sim2 {
		t.Fatalf("modeled makespan not reproducible: %v vs %v", sim1, sim2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].Op != ev2[i].Op || ev1[i].Start != ev2[i].Start ||
			ev1[i].Worker != ev2[i].Worker || ev1[i].CP != ev2[i].CP {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
}
