package graph

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// test ops for the optimizer (reusing the arithmetic ops from
// graph_test.go) plus an identity and an impure random op.

type testIdentity struct{}

func (testIdentity) Name() string   { return "Identity" }
func (testIdentity) Class() OpClass { return ClassDataMovement }
func (testIdentity) InferShape(in [][]int) ([]int, error) {
	return append([]int(nil), in[0]...), nil
}
func (testIdentity) View(in []*tensor.Tensor) (*tensor.Tensor, error) { return in[0], nil }
func (testIdentity) IsIdentity() bool                                 { return true }

type testRandom struct{ n int }

func (testRandom) Name() string   { return "Random" }
func (testRandom) Class() OpClass { return ClassRandom }
func (o testRandom) InferShape(in [][]int) ([]int, error) {
	return []int{o.n}, nil
}
func (o testRandom) ForwardInto(ctx *ExecContext, in []*tensor.Tensor, out *tensor.Tensor) error {
	tensor.FillUniform(out, ctx.RNG, 0, 1)
	return nil
}
func (testRandom) Impure() {}

func optCtx() *ExecContext {
	return &ExecContext{Pool: tensor.NewPool(1), RNG: rand.New(rand.NewSource(1))}
}

func TestOptimizeIdentityElision(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 2)
	y := g.MustApply(testIdentity{}, g.MustApply(testIdentity{}, x))
	out := g.MustApply(testSquare{}, y)
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.IdentitiesElided != 2 {
		t.Fatalf("expected 2 identities elided, got %d", res.IdentitiesElided)
	}
	f := res.Fetch(out)
	if f.OpName() != "Square" || f.Inputs()[0].Kind() != KindPlaceholder {
		t.Fatalf("identity chain should collapse to Square(placeholder), got %v", f)
	}
}

func TestOptimizeConstantFolding(t *testing.T) {
	g := New()
	a := g.Const("a", tensor.FromSlice([]float32{2, 3}, 2))
	b := g.Const("b", tensor.FromSlice([]float32{10, 20}, 2))
	sum := g.MustApply(testAdd{}, a, b)  // foldable
	sq := g.MustApply(testSquare{}, sum) // foldable transitively
	x := g.Placeholder("x", 2)
	out := g.MustApply(testAdd{}, sq, x) // not foldable (placeholder)
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstantsFolded != 2 {
		t.Fatalf("expected 2 folds, got %d", res.ConstantsFolded)
	}
	f := res.Fetch(out)
	c := f.Inputs()[0]
	if c.Kind() != KindConst {
		t.Fatalf("folded input should be a constant, got %v", c)
	}
	if c.Value().Data()[0] != 144 || c.Value().Data()[1] != 529 {
		t.Fatalf("folded value wrong: %v", c.Value().Data())
	}
}

func TestOptimizeCSE(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 3)
	a := g.MustApply(testSquare{}, x)
	b := g.MustApply(testSquare{}, x) // identical subexpression
	out := g.MustApply(testAdd{}, a, b)
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSEMerged != 1 {
		t.Fatalf("expected 1 CSE merge, got %d", res.CSEMerged)
	}
	f := res.Fetch(out)
	if f.Inputs()[0] != f.Inputs()[1] {
		t.Fatal("CSE should make both Add inputs the same node")
	}
}

func TestOptimizeDoesNotTouchImpure(t *testing.T) {
	g := New()
	r1 := g.MustApply(testRandom{4})
	r2 := g.MustApply(testRandom{4}) // identical but random: keep both
	out := g.MustApply(testAdd{}, r1, r2)
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSEMerged != 0 || res.ConstantsFolded != 0 {
		t.Fatalf("impure ops must not be merged/folded: %+v", res)
	}
	f := res.Fetch(out)
	if f.Inputs()[0] == f.Inputs()[1] {
		t.Fatal("two random draws must remain distinct")
	}
}

func TestOptimizeSharesVariables(t *testing.T) {
	g := New()
	v := g.Variable("v", tensor.FromSlice([]float32{5}, 1))
	out := g.MustApply(testSquare{}, v)
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	nv := res.Fetch(out).Inputs()[0]
	if nv.Kind() != KindVariable {
		t.Fatal("variable should remain a variable")
	}
	// Updating through either node is visible through the other.
	v.SetValue(tensor.FromSlice([]float32{9}, 1))
	if nv.Value().Data()[0] != 9 {
		t.Fatal("optimized graph must share variable storage")
	}
}

func TestOptimizePreservesSemantics(t *testing.T) {
	// A mixed expression: the optimized graph must compute the same
	// value as the original.
	g := New()
	x := g.Placeholder("x", 2)
	c := g.Const("c", tensor.FromSlice([]float32{3, 4}, 2))
	c2 := g.MustApply(testSquare{}, c) // folds to {9,16}
	s1 := g.MustApply(testMul{}, x, c2)
	s2 := g.MustApply(testMul{}, x, c2) // CSE with s1
	out := g.MustApply(testAdd{}, s1, g.MustApply(testIdentity{}, s2))
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	feed := tensor.FromSlice([]float32{2, 2}, 2)
	want := evalNode(t, out, map[*Node]*tensor.Tensor{x: feed})
	// The rewritten placeholder is a different node: find it.
	var nx *Node
	for _, n := range res.Graph.Nodes() {
		if n.Kind() == KindPlaceholder {
			nx = n
		}
	}
	got := evalNode(t, res.Fetch(out), map[*Node]*tensor.Tensor{nx: feed})
	if !tensor.AllClose(got, want, 1e-6, 1e-6) {
		t.Fatalf("optimized output %v differs from original %v", got.Data(), want.Data())
	}
	if res.Graph.NumNodes() >= g.NumNodes() {
		t.Fatalf("optimized graph should be smaller: %d vs %d", res.Graph.NumNodes(), g.NumNodes())
	}
}

// TestOptimizeSweepsDeadNodes: a fold leaves the constant it read with
// no reader; the sweep drops it, forgets its mapping and renumbers the
// survivors densely.
func TestOptimizeSweepsDeadNodes(t *testing.T) {
	g := New()
	x := g.Placeholder("x", 2)
	c := g.Const("c", tensor.FromSlice([]float32{3, 4}, 2))
	out := g.MustApply(testMul{}, x, g.MustApply(testSquare{}, c))
	res, err := Optimize(optCtx(), []*Node{out})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstantsFolded != 1 || res.Fetch(c) != nil {
		t.Fatalf("folded %d, constant c mapped to %v: want 1 fold and c gone", res.ConstantsFolded, res.Fetch(c))
	}
	for i, n := range res.Graph.Nodes() {
		if n.ID() != i || n.Name() == "c" {
			t.Fatalf("node %d is %v after the sweep", i, n)
		}
	}
	if n := res.Graph.NumNodes(); n != 3 {
		t.Fatalf("optimized graph holds %d nodes, want 3 (x, the folded square, the product)", n)
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(optCtx(), nil); err == nil {
		t.Fatal("empty fetches should error")
	}
	g1, g2 := New(), New()
	a := g1.Const("a", tensor.Ones(1))
	b := g2.Const("b", tensor.Ones(1))
	if _, err := Optimize(optCtx(), []*Node{a, b}); err == nil {
		t.Fatal("cross-graph fetches should error")
	}
}
