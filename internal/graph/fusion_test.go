package graph

import (
	"testing"

	"repro/internal/tensor"
)

// Stub fusion producer/consumer ops. testGemm is a stand-in for the
// real MatMul: a two-input op implementing EpilogueProducer that
// absorbs the elementwise stubs (testAdd, testSquare) into
// testFusedGemm — base kernel followed by the epilogue chain, same
// float sequence as the unfused graph.

type testGemm struct{}

func (testGemm) Name() string   { return "Gemm" }
func (testGemm) Class() OpClass { return ClassMatrix }
func (testGemm) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (testGemm) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	return tensor.BinaryOpInto(ctx.Pool, out, in[0], in[1], func(a, b float32) float32 { return a*2 + b })
}
func (o testGemm) AbsorbEpilogue(consumer Op, pos int) (Op, bool) {
	switch consumer.(type) {
	case testAdd, testSquare, testBroadcastAdd:
		return testFusedGemm{eps: []Op{consumer}}, true
	}
	return nil, false
}

type testFusedGemm struct{ eps []Op }

func (o testFusedGemm) Name() string {
	s := "Gemm"
	for _, e := range o.eps {
		s += "+" + e.Name()
	}
	return s
}
func (testFusedGemm) Class() OpClass { return ClassMatrix }
func (o testFusedGemm) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (o testFusedGemm) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	if err := (testGemm{}).ForwardInto(ctx, in[:2], out); err != nil {
		return err
	}
	next := 2
	d := out.Data()
	for _, e := range o.eps {
		switch e.(type) {
		case testAdd:
			for i, v := range in[next].Data() {
				d[i] += v
			}
			next++
		case testSquare:
			for i, v := range d {
				d[i] = v * v
			}
		}
	}
	return nil
}
func (o testFusedGemm) AbsorbEpilogue(consumer Op, pos int) (Op, bool) {
	switch consumer.(type) {
	case testAdd, testSquare:
		eps := make([]Op, len(o.eps), len(o.eps)+1)
		copy(eps, o.eps)
		return testFusedGemm{eps: append(eps, consumer)}, true
	}
	return nil, false
}

// testImpureGemm is a producer that would fuse but is Impure — the
// pass must refuse to absorb it.
type testImpureGemm struct{ testGemm }

func (testImpureGemm) Impure() {}

// testMutAdd is an elementwise consumer that mutates a variable — the
// pass must refuse to rewrite it.
type testMutAdd struct {
	testAdd
	target *Node
}

func (o testMutAdd) Mutates() []*Node { return []*Node{o.target} }

func TestFuseEpiloguesChain(t *testing.T) {
	build := func() (*Graph, *Node, *Node, *Node) {
		g := New()
		x := g.Placeholder("x", 4)
		w := g.Const("w", tensor.FromSlice([]float32{1, 2, 3, 4}, 4))
		c := g.Const("c", tensor.FromSlice([]float32{5, 6, 7, 8}, 4))
		mm := g.MustApply(testGemm{}, x, w)
		biased := g.MustApply(testAdd{}, mm, c)
		out := g.MustApply(testSquare{}, biased)
		return g, x, mm, out
	}
	g, x, _, out := build()
	if fused := FuseEpilogues(g, out); fused != 2 {
		t.Fatalf("expected 2 absorbed consumers, got %d", fused)
	}
	if out.OpName() != "Gemm+Add+Square" {
		t.Fatalf("chain did not fold into one op: %q", out.OpName())
	}
	if len(out.Inputs()) != 3 {
		t.Fatalf("fused node should read x, w, c — got %d inputs", len(out.Inputs()))
	}
	// Same bits as the unfused graph.
	feed := tensor.FromSlice([]float32{1, -1, 2, -2}, 4)
	got := evalNode(t, out, map[*Node]*tensor.Tensor{x: feed})
	g2, x2, _, out2 := build()
	_ = g2
	want := evalNode(t, out2, map[*Node]*tensor.Tensor{x2: feed})
	if d := tensor.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("fused result differs from unfused (max |Δ| %g)", d)
	}
}

func TestFuseEpiloguesMultiReaderGate(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 4)
	w := g.Const("w", tensor.Ones(4))
	c := g.Const("c", tensor.Ones(4))
	mm := g.MustApply(testGemm{}, x, w)
	a := g.MustApply(testAdd{}, mm, c)
	b := g.MustApply(testSquare{}, mm) // second reader of mm
	if fused := FuseEpilogues(g, a, b); fused != 0 {
		t.Fatalf("multi-reader intermediate must stay materialized, got %d fusions", fused)
	}
	if a.OpName() != "Add" || b.OpName() != "Square" {
		t.Fatalf("consumers rewritten despite multi-reader gate: %q, %q", a.OpName(), b.OpName())
	}
}

func TestFuseEpiloguesKeepGate(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 4)
	w := g.Const("w", tensor.Ones(4))
	c := g.Const("c", tensor.Ones(4))
	mm := g.MustApply(testGemm{}, x, w)
	out := g.MustApply(testAdd{}, mm, c)
	// mm is externally fetched: keeping it must block the absorb.
	if fused := FuseEpilogues(g, out, mm); fused != 0 {
		t.Fatalf("kept producer must not be absorbed, got %d fusions", fused)
	}
}

func TestFuseEpiloguesImpureAndMutatorGates(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 4)
	w := g.Const("w", tensor.Ones(4))
	c := g.Const("c", tensor.Ones(4))
	// Impure producer: never absorbed even though it implements
	// EpilogueProducer.
	rnd := g.MustApply(testImpureGemm{}, x, w)
	outA := g.MustApply(testAdd{}, rnd, c)
	// Mutator consumer: never rewritten even though its producer is
	// fusable.
	v := g.Variable("v", tensor.Ones(4))
	mm := g.MustApply(testGemm{}, x, w)
	outB := g.MustApply(testMutAdd{target: v}, mm, c)
	if fused := FuseEpilogues(g, outA, outB); fused != 0 {
		t.Fatalf("fusion crossed an Impure/Mutator barrier: %d fusions", fused)
	}
	if outA.OpName() != "Add" || outB.OpName() != "Add" {
		t.Fatalf("barrier ops rewritten: %q, %q", outA.OpName(), outB.OpName())
	}
}

func TestFuseEpiloguesShapeGate(t *testing.T) {
	// A consumer that broadens the producer's shape is not an epilogue:
	// the fused InferShape returns the producer shape, which differs
	// from the consumer node's, so the pass must skip it. testAdd
	// requires same shapes, so emulate with a stub producing shape {1}.
	g := New()
	x := g.Placeholder("x", 1)
	w := g.Const("w", tensor.Ones(1))
	c := g.Const("c", tensor.Ones(4))
	mm := g.MustApply(testGemm{}, x, w)
	// Manually apply a consumer whose shape differs via a broadcast op.
	out := g.MustApply(testBroadcastAdd{}, mm, c)
	if fused := FuseEpilogues(g, out); fused != 0 {
		t.Fatalf("shape-broadening consumer fused: %d", fused)
	}
}

// testBroadcastAdd broadens its first operand to the second's shape —
// the anti-pattern the fusion shape gate must reject (the stub
// producer would absorb it, since testGemm absorbs by type only; the
// gate is the output-shape comparison in FuseEpilogues).
type testBroadcastAdd struct{ testAdd }

func (testBroadcastAdd) Name() string { return "Add" }
func (testBroadcastAdd) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[1]...), nil
}
