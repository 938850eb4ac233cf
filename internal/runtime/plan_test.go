package runtime

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// buildChain is a small feed-forward stack of kernels, so the plan
// assigns slab slots throughout.
func buildChain() (*graph.Graph, *graph.Node, *graph.Node, *graph.Node) {
	g := graph.New()
	x := g.Placeholder("x", 4, 8)
	w1 := g.Variable("w1", tensor.Full(0.1, 8, 8))
	w2 := g.Variable("w2", tensor.Full(0.2, 8, 8))
	h1 := ops.Relu(ops.MatMul(x, w1))
	h2 := ops.Relu(ops.MatMul(h1, w2))
	y := ops.Add(h2, h1)
	return g, x, h1, y
}

// TestRunResultsSurviveSubsequentRuns is the slab-aliasing guarantee:
// a tensor fetched from one Run must not be clobbered when a later Run
// reuses the plan's buffers.
func TestRunResultsSurviveSubsequentRuns(t *testing.T) {
	g, x, h1, y := buildChain()
	_ = g
	s := NewSession(g)
	first := s.MustRun([]*graph.Node{y, h1}, Feeds{x: tensor.Ones(4, 8)})
	snapY := first[0].Clone()
	snapH := first[1].Clone()
	// Different feed → different intermediate values through the same
	// plan buffers.
	s.MustRun([]*graph.Node{y, h1}, Feeds{x: tensor.Full(-3, 4, 8)})
	if tensor.MaxAbsDiff(first[0], snapY) != 0 {
		t.Fatal("fetched output was clobbered by a subsequent Run")
	}
	if tensor.MaxAbsDiff(first[1], snapH) != 0 {
		t.Fatal("fetched intermediate was clobbered by a subsequent Run")
	}
}

// TestFetchThroughViewIsCopied guards the alias analysis:
// a fetch reached through a view op (Reshape of a slab-backed
// MatMul) must still be protected by copy-on-fetch.
func TestFetchThroughViewIsCopied(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 2, 6)
	w := g.Variable("w", tensor.Full(0.5, 6, 6))
	mm := ops.MatMul(x, w)
	view := ops.Reshape(mm, 3, 4)
	s := NewSession(g)
	first := s.MustRun([]*graph.Node{view}, Feeds{x: tensor.Ones(2, 6)})
	snap := first[0].Clone()
	s.MustRun([]*graph.Node{view}, Feeds{x: tensor.Full(7, 2, 6)})
	if tensor.MaxAbsDiff(first[0], snap) != 0 {
		t.Fatal("fetch through a view op aliased reused slab floats")
	}
}

// TestPlanCachedMatchesFreshCompile: executing through a cached plan
// must produce bitwise-identical results to a freshly compiled one.
func TestPlanCachedMatchesFreshCompile(t *testing.T) {
	feeds := func(s *Session, x *graph.Node) Feeds {
		return Feeds{x: tensor.Full(0.3, 4, 8)}
	}
	g1, x1, _, y1 := buildChain()
	_ = g1
	s1 := NewSession(g1)
	s1.MustRun([]*graph.Node{y1}, feeds(s1, x1)) // compile + warm buffers
	cached := s1.MustRun([]*graph.Node{y1}, feeds(s1, x1))

	g2, x2, _, y2 := buildChain()
	_ = g2
	s2 := NewSession(g2)
	fresh := s2.MustRun([]*graph.Node{y2}, feeds(s2, x2))

	if tensor.MaxAbsDiff(cached[0], fresh[0]) != 0 {
		t.Fatalf("cached plan diverges from fresh compile (max diff %g)",
			tensor.MaxAbsDiff(cached[0], fresh[0]))
	}
}

// TestPlanAssignsAndReusesArenaSlots checks the liveness analysis
// actually shares floats: a deep chain of same-shaped intermediates
// needs far fewer slots' worth of slab than it has slots. Unfused, or the
// chain would be one step.
func TestPlanAssignsAndReusesArenaSlots(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 16, 16)
	h := x
	for i := 0; i < 10; i++ {
		h = ops.Relu(h)
	}
	s := NewSession(g, WithUnfusedPlans())
	p := s.Plan([]*graph.Node{h})
	if p.Slots() != 10 {
		t.Fatalf("expected 10 slots, got %d", p.Slots())
	}
	// Each step's input is still live while its output is written, so
	// two ranges alternate, the fetched slot on one of them.
	if p.Buffers() != 2 {
		t.Fatalf("liveness analysis should share floats: %d slots, %d on fresh floats", p.Slots(), p.Buffers())
	}
	// The sharing the planner decided at compile time shows in the arena
	// statistics the serving surfaces report.
	const slot = 16 * 16 * 4
	if st := s.Arena().Stats(); st.TotalBytes != 2*slot || st.SlotBytes != 10*slot || st.ReuseRatio() != 0.8 {
		t.Fatalf("arena stats %+v (reuse ratio %g), want a slab of 2 of the plan's 10 slots", st, st.ReuseRatio())
	}
}

// TestPlanOutputNeverAliasesInput: with ping-ponging shared buffers, an
// op must never be assigned the buffer one of its live inputs holds.
// Relu(MatMul) chains would corrupt instantly if that happened; verify
// against an interpreter-style fresh session numerically.
func TestPlanOutputNeverAliasesInput(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 8, 8)
	w := g.Variable("w", tensor.Full(0.11, 8, 8))
	h := x
	for i := 0; i < 6; i++ {
		h = ops.Relu(ops.MatMul(h, w))
	}
	s := NewSession(g)
	feed := Feeds{x: tensor.Ones(8, 8)}
	s.MustRun([]*graph.Node{h}, feed)
	got := s.MustRun([]*graph.Node{h}, feed)[0]

	// Reference: naive per-step evaluation with fresh tensors.
	p := tensor.NewPool(1)
	ref := tensor.Ones(8, 8)
	wv := tensor.Full(0.11, 8, 8)
	for i := 0; i < 6; i++ {
		mm, err := tensor.MatMul(p, ref, wv, false, false)
		if err != nil {
			t.Fatal(err)
		}
		ref = mm
		for j, v := range ref.Data() {
			ref.Data()[j] = max(v, 0)
		}
	}
	if tensor.MaxAbsDiff(got, ref) != 0 {
		t.Fatalf("plan execution diverges from reference (max diff %g)", tensor.MaxAbsDiff(got, ref))
	}
}

// buildMovementChain is Slice → Concat → Tile → Transpose → Gather:
// data movement only, every result in a slot.
func buildMovementChain() (*graph.Graph, *graph.Node, *graph.Node, *graph.Node) {
	g := graph.New()
	x := g.Placeholder("x", 4, 8)
	left := ops.SliceN(x, []int{0, 0}, []int{4, 4})
	wide := ops.TileN(ops.ConcatN(1, left, left), []int{2, 1})
	idx := g.Const("idx", tensor.FromSlice([]float32{7, 0, 3}, 3))
	y := ops.Gather(ops.Transpose(wide), idx)
	return g, x, left, y
}

// buildReductionChain is one of each reduction: the gradient of a
// Tile, a SumTo undoing a broadcast, an axis Sum, a MeanKeep and a full
// Max.
func buildReductionChain() (*graph.Graph, *graph.Node, *graph.Node, *graph.Node) {
	g := graph.New()
	x := g.Placeholder("x", 4, 8)
	grads, err := graph.Gradients(ops.Sum(ops.TileN(x, []int{2, 1})), []*graph.Node{x})
	if err != nil {
		panic(err)
	}
	cols := ops.SumTo(grads[0], []int{1, 8})
	y := ops.MaxReduce(ops.MeanKeep(ops.Sum(cols, 1), 0))
	return g, x, cols, y
}

// TestSteadyStateRunAllocsLittle: after the first Run compiles the
// plan, subsequent Runs should perform only a handful of allocations
// (the fetch clone and bookkeeping), not one per intermediate —
// whatever kind of kernel the intermediates come from — and a fused
// plan no more than the same chain unfused.
func TestSteadyStateRunAllocsLittle(t *testing.T) {
	chain := func(build func() (*graph.Graph, *graph.Node, *graph.Node, *graph.Node)) func() (*graph.Graph, []*graph.Node) {
		return func() (*graph.Graph, []*graph.Node) {
			g, _, _, y := build()
			return g, []*graph.Node{y}
		}
	}
	for name, build := range map[string]func() (*graph.Graph, []*graph.Node){
		"arithmetic": chain(buildChain), "movement": chain(buildMovementChain),
		"reduction": chain(buildReductionChain), "cell tail": cellTail,
	} {
		var allocs [2]float64 // fused, unfused
		for i, opts := range [][]Option{nil, {WithUnfusedPlans()}} {
			g, fetches := build()
			s := NewSession(g, opts...)
			feed := feedAll(g, 1)
			s.MustRun(fetches, feed)
			allocs[i] = testing.AllocsPerRun(20, func() {
				s.MustRun(fetches, feed)
			})
		}
		if allocs[0] > 12 {
			t.Errorf("%s chain: steady-state Run allocates %v objects; the plan should hold them near zero", name, allocs[0])
		}
		if allocs[0] > allocs[1] {
			t.Errorf("%s chain: a fused Run allocates %v objects, unfused %v", name, allocs[0], allocs[1])
		}
	}
}

// TestTrainingStepMatchesSeedSemantics: optimizer updates through the
// planned executor accumulate across Runs exactly as before.
func TestTrainingStepMatchesSeedSemantics(t *testing.T) {
	g := graph.New()
	x := g.Placeholder("x", 2, 3)
	w := g.Variable("w", tensor.Full(0.5, 3, 1))
	y := ops.Sum(ops.MatMul(x, w))
	grads, err := graph.Gradients(y, []*graph.Node{w})
	if err != nil {
		t.Fatal(err)
	}
	up := ops.ApplySGD(w, grads[0], 0.1)
	s := NewSession(g)
	feed := Feeds{x: tensor.Ones(2, 3)}
	s.MustRun([]*graph.Node{up}, feed)
	s.MustRun([]*graph.Node{up}, feed)
	// dL/dw = 2 per element; two steps of -0.1·2 from 0.5, replayed in
	// float32 to match the kernel's arithmetic exactly.
	want := float32(0.5)
	want -= float32(0.1) * 2
	want -= float32(0.1) * 2
	for _, v := range w.Value().Data() {
		if v != want {
			t.Fatalf("variable after two planned steps = %v, want %v", w.Value().Data(), want)
		}
	}
}

// TestGPUDevicePlansIntoPath: a session pricing on the modeled GPU runs
// the same slab layout and must stay numerically identical to CPU.
func TestGPUDevicePlansIntoPath(t *testing.T) {
	g, x, _, y := buildChain()
	_ = g
	feed := Feeds{x: tensor.Ones(4, 8)}
	cpu := NewSession(g)
	gpu := NewSession(g, WithDevice(NewGTX960()))
	if gpu.Plan([]*graph.Node{y}).Slots() == 0 {
		t.Fatal("GPU device should use slots")
	}
	a := cpu.MustRun([]*graph.Node{y}, feed)[0]
	b := gpu.MustRun([]*graph.Node{y}, feed)[0]
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("GPU into-path diverges from CPU")
	}
}
